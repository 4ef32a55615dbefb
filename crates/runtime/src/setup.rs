//! The execution core both backends share: the runtime rules of a solved
//! plan, decided once for the threaded executor ([`crate::exec`]) and the
//! rank backend ([`crate::dist`]).
//!
//! * `validate_shape` — the plan/partition invariants every loop relies
//!   on, checked before any loop runs, so a malformed plan is a typed
//!   [`ShapeError`] and never a half-mutated store;
//! * `LoopSetup` — how each access of one loop applies its effects: in
//!   place, under a guard (Section 5.1), or through a two-step reduction
//!   buffer over the full subregion or the remainder outside a private
//!   sub-partition (Section 5.2), plus the first-owner narrowing of
//!   centered writes when the iteration partition aliases.

use partir_core::pipeline::{LoopPlan, ParallelPlan, PlannedReduce};
use partir_dpl::index_set::{Idx, IndexSet};
use partir_dpl::partition::Partition;
use partir_dpl::region::{RegionId, Schema};
use partir_ir::ast::{AccessId, Loop};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A plan whose partitions do not have the shape execution relies on.
#[derive(Clone, Debug)]
pub enum ShapeError {
    /// The plan does not describe this program (loop counts differ).
    PlanMismatch { plan_loops: usize, program_loops: usize },
    /// A plan references a partition index outside the evaluated set.
    PartitionIndexOutOfBounds { loop_index: usize, part: usize, len: usize },
    /// Partitions disagree on the launch width (subregion counts differ).
    PartitionWidthMismatch { part: usize, expected: usize, got: usize },
    /// A partition contains element indices outside its region.
    PartitionExceedsRegion { loop_index: usize, part: usize, index: Idx, size: u64 },
    /// The iteration partition misses elements of the iteration space.
    IncompleteIteration { loop_index: usize },
    /// A loop with centered reductions got an aliased iteration partition.
    IterationNotDisjoint { loop_index: usize },
    /// A direct/guarded reduction partition is not disjoint.
    ReductionNotDisjoint { loop_index: usize, access: AccessId },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::PlanMismatch { plan_loops, program_loops } => {
                write!(f, "plan describes {plan_loops} loops but the program has {program_loops}")
            }
            ShapeError::PartitionIndexOutOfBounds { loop_index, part, len } => {
                write!(
                    f,
                    "loop {loop_index}: partition index {part} out of bounds ({len} evaluated)"
                )
            }
            ShapeError::PartitionWidthMismatch { part, expected, got } => {
                write!(f, "partition {part} has {got} subregions, launch width is {expected}")
            }
            ShapeError::PartitionExceedsRegion { loop_index, part, index, size } => {
                write!(
                    f,
                    "loop {loop_index}: partition {part} contains element {index} outside its region (size {size})"
                )
            }
            ShapeError::IncompleteIteration { loop_index } => {
                write!(f, "loop {loop_index}: iteration partition incomplete")
            }
            ShapeError::IterationNotDisjoint { loop_index } => {
                write!(
                    f,
                    "loop {loop_index}: centered reductions need a disjoint iteration partition"
                )
            }
            ShapeError::ReductionNotDisjoint { loop_index, access } => {
                write!(f, "loop {loop_index}: reduction partition for {access:?} not disjoint")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// Checks, before any loop runs, every plan/partition invariant execution
/// relies on: the plan matches the program, all partitions share one
/// launch width, every partition index resolves, iteration partitions
/// cover their loop's region (disjointly when the loop has centered
/// reductions), and every in-place reduction partition is disjoint.
///
/// `check_bounds` also walks every subregion for elements outside its
/// region; it rides on the backends' legality switches (on for tests, off
/// for benchmarks).
pub(crate) fn validate_shape(
    program: &[Loop],
    plan: &ParallelPlan,
    parts: &[Arc<Partition>],
    schema: &Schema,
    check_bounds: bool,
) -> Result<(), ShapeError> {
    if plan.loops.len() != program.len() {
        return Err(ShapeError::PlanMismatch {
            plan_loops: plan.loops.len(),
            program_loops: program.len(),
        });
    }
    let width = parts.first().map(|p| p.num_subregions()).unwrap_or(0);
    for (pi, p) in parts.iter().enumerate() {
        if p.num_subregions() != width {
            return Err(ShapeError::PartitionWidthMismatch {
                part: pi,
                expected: width,
                got: p.num_subregions(),
            });
        }
    }
    // Resolves a partition index of loop `li`, checking its elements stay
    // inside `region` when bounds checking is on.
    let part = |li: usize, pi: usize, region: RegionId| -> Result<&Partition, ShapeError> {
        let p = parts.get(pi).ok_or(ShapeError::PartitionIndexOutOfBounds {
            loop_index: li,
            part: pi,
            len: parts.len(),
        })?;
        if check_bounds {
            let size = schema.region_size(region);
            if let Some(m) = p.subregions().iter().filter_map(IndexSet::max).find(|&m| m >= size) {
                return Err(ShapeError::PartitionExceedsRegion {
                    loop_index: li,
                    part: pi,
                    index: m,
                    size,
                });
            }
        }
        Ok(p)
    };
    for (li, lplan) in plan.loops.iter().enumerate() {
        let region = program[li].region;
        let iter = part(li, lplan.iter.0 as usize, region)?;
        if !iter.is_complete(schema.region_size(region)) {
            return Err(ShapeError::IncompleteIteration { loop_index: li });
        }
        if lplan.iter_must_be_disjoint && !iter.is_disjoint() {
            return Err(ShapeError::IterationNotDisjoint { loop_index: li });
        }
        for (ai, ap) in lplan.accesses.iter().enumerate() {
            part(li, ap.part.0 as usize, ap.region)?;
            if let Some(pi) = ap.in_place_part() {
                if !part(li, pi.0 as usize, ap.region)?.is_disjoint() {
                    return Err(ShapeError::ReductionNotDisjoint {
                        loop_index: li,
                        access: AccessId(ai as u32),
                    });
                }
            }
        }
    }
    Ok(())
}

/// How one access applies its effects.
pub(crate) enum Mode<'a> {
    /// Reads, writes, centered and direct reductions: in place.
    Plain,
    /// Relaxed guarded reduction: applied iff the target lies in the
    /// task's subregion of the (disjoint) access partition.
    Guarded,
    /// Two-step reduction into buffer `buf` of [`LoopSetup::buf_sets`].
    Buffered { buf: usize },
    /// In place inside `private`, buffered into `buf` elsewhere.
    BufferedPrivate { private: &'a Partition, buf: usize },
}

/// One loop's access setup, resolved against the evaluated partitions of
/// a plan that passed [`validate_shape`].
pub(crate) struct LoopSetup<'a> {
    pub plan: &'a LoopPlan,
    pub parts: &'a [Arc<Partition>],
    pub iter: &'a Partition,
    /// Per access, in loop-plan order.
    pub modes: Vec<Mode<'a>>,
    /// `buf_sets[buf][color]`: the elements a color's reduction buffer
    /// covers — the full subregion (`Buffered`), or its remainder outside
    /// the private sub-partition (`BufferedPrivate`).
    pub buf_sets: Vec<Cow<'a, [IndexSet]>>,
    /// First-owner narrowing of centered writes
    /// ([`LoopPlan::write_owners`]).
    pub write_own: Option<Vec<IndexSet>>,
}

impl<'a> LoopSetup<'a> {
    pub fn resolve(lplan: &'a LoopPlan, parts: &'a [Arc<Partition>]) -> Self {
        let iter: &Partition = &parts[lplan.iter.0 as usize];
        let mut buf_sets = Vec::new();
        let modes = lplan
            .accesses
            .iter()
            .map(|ap| {
                let part: &'a Partition = &parts[ap.part.0 as usize];
                match &ap.reduce {
                    None | Some(PlannedReduce::Direct) => Mode::Plain,
                    Some(PlannedReduce::Guarded) => Mode::Guarded,
                    Some(PlannedReduce::Buffered) => {
                        buf_sets.push(Cow::Borrowed(part.subregions()));
                        Mode::Buffered { buf: buf_sets.len() - 1 }
                    }
                    Some(PlannedReduce::BufferedPrivate { private }) => {
                        let private: &'a Partition = &parts[private.0 as usize];
                        let shared = part.iter().zip(private.iter()).map(|(a, p)| a.difference(p));
                        buf_sets.push(Cow::Owned(shared.collect()));
                        Mode::BufferedPrivate { private, buf: buf_sets.len() - 1 }
                    }
                }
            })
            .collect();
        LoopSetup {
            plan: lplan,
            parts,
            iter,
            modes,
            buf_sets,
            write_own: lplan.write_owners(parts),
        }
    }

    /// `color`'s subregion of access `a`'s partition: everything the
    /// access may touch for that color.
    #[inline]
    pub fn subregion(&self, a: AccessId, color: usize) -> &'a IndexSet {
        self.parts[self.plan.accesses[a.0 as usize].part.0 as usize].subregion(color)
    }

    /// The reduction buffer access `access` feeds, if it is buffered.
    pub fn buffer_of(&self, access: usize) -> Option<usize> {
        match self.modes[access] {
            Mode::Buffered { buf } | Mode::BufferedPrivate { buf, .. } => Some(buf),
            Mode::Plain | Mode::Guarded => None,
        }
    }
}
