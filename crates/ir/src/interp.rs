//! Loop interpreter.
//!
//! The interpreter executes loop bodies against a [`DataCtx`], which
//! abstracts *how* region data is accessed. Two implementations matter:
//!
//! * [`SeqCtx`] — direct access to a [`Store`]; running every loop over its
//!   full iteration space gives the sequential reference semantics that all
//!   parallel executions must reproduce;
//! * the parallel task context in `partir-runtime`, which adds legality
//!   assertions (every access must stay inside the task's subregion),
//!   per-task reduction buffers, and the guard checks of relaxed loops
//!   (Section 5.1) — all keyed by [`AccessId`].
//!
//! Keeping one interpreter for both guarantees that "auto-parallelized"
//! executions compute the same function as the sequential program modulo
//! scheduling.

use crate::ast::{AccessId, BinOp, Loop, ReduceOp, Stmt, UnOp, VExpr};
use partir_dpl::func::{FnDef, FnId, FnTable, IndexSource};
use partir_dpl::index_set::Idx;
use partir_dpl::region::{FieldId, Schema, Store};

/// How loop bodies touch data. All region accesses carry their [`AccessId`]
/// so implementations can enforce per-site policies.
pub trait DataCtx {
    fn read_f64(&mut self, access: AccessId, field: FieldId, i: Idx) -> f64;
    fn write_f64(&mut self, access: AccessId, field: FieldId, i: Idx, v: f64);
    fn reduce_f64(&mut self, access: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64);
    fn read_ptr(&mut self, access: AccessId, field: FieldId, i: Idx) -> Idx;
    /// Applies a declared single-valued index function (pure; not a region
    /// access — pointer-field reads go through [`DataCtx::read_ptr`]).
    fn eval_fn(&mut self, f: FnId, i: Idx) -> Idx;
    /// Expands a set-valued function for a `ForEach` header (a region access
    /// when the function is backed by a range field).
    fn eval_multi(&mut self, access: AccessId, f: FnId, i: Idx, out: &mut Vec<Idx>);
}

/// Direct sequential access to a store.
pub struct SeqCtx<'a> {
    pub store: &'a mut Store,
    pub fns: &'a FnTable,
}

impl<'a> SeqCtx<'a> {
    pub fn new(store: &'a mut Store, fns: &'a FnTable) -> Self {
        SeqCtx { store, fns }
    }
}

impl DataCtx for SeqCtx<'_> {
    fn read_f64(&mut self, _a: AccessId, field: FieldId, i: Idx) -> f64 {
        self.store.f64s(field)[i as usize]
    }
    fn write_f64(&mut self, _a: AccessId, field: FieldId, i: Idx, v: f64) {
        self.store.f64s_mut(field)[i as usize] = v;
    }
    fn reduce_f64(&mut self, _a: AccessId, field: FieldId, i: Idx, op: ReduceOp, v: f64) {
        let slot = &mut self.store.f64s_mut(field)[i as usize];
        *slot = op.apply(*slot, v);
    }
    fn read_ptr(&mut self, _a: AccessId, field: FieldId, i: Idx) -> Idx {
        self.store.ptrs(field)[i as usize]
    }
    fn eval_fn(&mut self, f: FnId, i: Idx) -> Idx {
        eval_fn(self.fns, self.store.schema(), &*self.store, f, i)
    }
    fn eval_multi(&mut self, _a: AccessId, f: FnId, i: Idx, out: &mut Vec<Idx>) {
        eval_multi(self.fns, self.store.schema(), &*self.store, f, i, out)
    }
}

/// [`DataCtx::eval_fn`] for every context: evaluates the single-valued
/// function `f` at `i` against `src`'s topology fields.
///
/// # Panics
/// When `f(i)` has no image in `f`'s range, or `f` is multi-valued — the
/// program applied a function outside its domain, which no partitioning
/// can make meaningful.
#[inline]
pub fn eval_fn<S: IndexSource + ?Sized>(
    fns: &FnTable,
    schema: &Schema,
    src: &S,
    f: FnId,
    i: Idx,
) -> Idx {
    let nf = fns.get(f);
    match &nf.def {
        FnDef::Index(func) => match func.eval(src, i, schema.region_size(nf.range)) {
            Some(v) => v,
            None => no_image(&nf.name, i),
        },
        FnDef::Multi(_) => panic!("eval_fn on multi-valued function {}", nf.name),
    }
}

#[cold]
#[inline(never)]
fn no_image(name: &str, i: Idx) -> ! {
    panic!("function {name} out of range at {i}")
}

/// [`DataCtx::eval_multi`] for every context: appends the image of `i`
/// under `f` to `out` — a range field's slice, or the single image of a
/// single-valued function, or nothing when `i` has no image.
#[inline]
pub fn eval_multi<S: IndexSource + ?Sized>(
    fns: &FnTable,
    schema: &Schema,
    src: &S,
    f: FnId,
    i: Idx,
    out: &mut Vec<Idx>,
) {
    let nf = fns.get(f);
    let size = schema.region_size(nf.range);
    match &nf.def {
        FnDef::Multi(func) => func.eval_into(src, i, size, out),
        FnDef::Index(func) => out.extend(func.eval(src, i, size)),
    }
}

/// Execution frame: locals for one loop body.
struct Frame {
    ivals: Vec<Idx>,
    vvals: Vec<f64>,
}

fn eval_expr(e: &VExpr, frame: &Frame) -> f64 {
    match e {
        VExpr::Const(c) => *c,
        VExpr::Var(v) => frame.vvals[v.0 as usize],
        VExpr::Un(op, a) => {
            let x = eval_expr(a, frame);
            match op {
                UnOp::Neg => -x,
                UnOp::Abs => x.abs(),
                UnOp::Sqrt => x.sqrt(),
            }
        }
        VExpr::Bin(op, a, b) => {
            let x = eval_expr(a, frame);
            let y = eval_expr(b, frame);
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
            }
        }
    }
}

fn exec_body<C: DataCtx>(
    body: &[Stmt],
    ctx: &mut C,
    frame: &mut Frame,
    scratch: &mut Vec<Vec<Idx>>,
    depth: usize,
) {
    for s in body {
        match s {
            Stmt::IdxRead { access, dst, field, src, .. } => {
                let i = frame.ivals[src.0 as usize];
                frame.ivals[dst.0 as usize] = ctx.read_ptr(*access, *field, i);
            }
            Stmt::IdxApply { dst, f, src } => {
                let i = frame.ivals[src.0 as usize];
                frame.ivals[dst.0 as usize] = ctx.eval_fn(*f, i);
            }
            Stmt::IdxCopy { dst, src } => {
                frame.ivals[dst.0 as usize] = frame.ivals[src.0 as usize];
            }
            Stmt::ValRead { access, dst, field, idx, .. } => {
                let i = frame.ivals[idx.0 as usize];
                frame.vvals[dst.0 as usize] = ctx.read_f64(*access, *field, i);
            }
            Stmt::ValWrite { access, field, idx, value, .. } => {
                let i = frame.ivals[idx.0 as usize];
                let v = eval_expr(value, frame);
                ctx.write_f64(*access, *field, i, v);
            }
            Stmt::ValReduce { access, field, idx, op, value, .. } => {
                let i = frame.ivals[idx.0 as usize];
                let v = eval_expr(value, frame);
                ctx.reduce_f64(*access, *field, i, *op, v);
            }
            Stmt::ForEach { range_access, var, f, src, body } => {
                if scratch.len() <= depth {
                    scratch.resize_with(depth + 1, Vec::new);
                }
                let mut items = std::mem::take(&mut scratch[depth]);
                items.clear();
                let i = frame.ivals[src.0 as usize];
                ctx.eval_multi(*range_access, *f, i, &mut items);
                for &k in &items {
                    frame.ivals[var.0 as usize] = k;
                    exec_body(body, ctx, frame, scratch, depth + 1);
                }
                scratch[depth] = items;
            }
        }
    }
}

/// Runs one loop body over the given iteration indices.
pub fn run_loop_over<C: DataCtx>(lp: &Loop, ctx: &mut C, iter: impl Iterator<Item = Idx>) {
    let mut frame =
        Frame { ivals: vec![0; lp.num_ivars as usize], vvals: vec![0.0; lp.num_vvars as usize] };
    let mut scratch: Vec<Vec<Idx>> = Vec::new();
    for i in iter {
        frame.ivals[lp.var.0 as usize] = i;
        exec_body(&lp.body, ctx, &mut frame, &mut scratch, 0);
    }
}

/// Runs one loop sequentially over its whole iteration space.
pub fn run_loop_seq(lp: &Loop, store: &mut Store, fns: &FnTable) {
    let size = store.schema().region_size(lp.region);
    let mut ctx = SeqCtx::new(store, fns);
    run_loop_over(lp, &mut ctx, 0..size);
}

/// Runs a whole program (sequence of loops) sequentially.
pub fn run_program_seq(loops: &[Loop], store: &mut Store, fns: &FnTable) {
    for lp in loops {
        run_loop_seq(lp, store, fns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LoopBuilder, ReduceOp, VExpr};
    use partir_dpl::region::{FieldKind, Schema};

    #[test]
    fn saxpy_like_loop() {
        // for i in R: R[i].y = 2*R[i].x + R[i].y
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let fx = schema.add_field(r, "x", FieldKind::F64);
        let fy = schema.add_field(r, "y", FieldKind::F64);
        let mut store = Store::new(schema);
        for i in 0..8 {
            store.f64s_mut(fx)[i] = i as f64;
            store.f64s_mut(fy)[i] = 1.0;
        }
        let fns = FnTable::new();
        let mut b = LoopBuilder::new("saxpy", r);
        let i = b.loop_var();
        let x = b.val_read(r, fx, i);
        let y = b.val_read(r, fy, i);
        b.val_write(
            r,
            fy,
            i,
            VExpr::add(VExpr::mul(VExpr::Const(2.0), VExpr::var(x)), VExpr::var(y)),
        );
        let lp = b.finish();
        run_loop_seq(&lp, &mut store, &fns);
        let want: Vec<f64> = (0..8).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert_eq!(store.f64s(fy), &want[..]);
    }

    #[test]
    fn uncentered_read_through_pointer() {
        // for p in P: P[p].out = C[P[p].cell].val
        let mut schema = Schema::new();
        let c = schema.add_region("C", 4);
        let p = schema.add_region("P", 6);
        let cell = schema.add_field(p, "cell", FieldKind::Ptr(c));
        let out = schema.add_field(p, "out", FieldKind::F64);
        let val = schema.add_field(c, "val", FieldKind::F64);
        let mut store = Store::new(schema);
        store.ptrs_mut(cell).copy_from_slice(&[0, 1, 2, 3, 0, 1]);
        store.f64s_mut(val).copy_from_slice(&[10.0, 20.0, 30.0, 40.0]);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("cell", p, c, cell);
        let mut b = LoopBuilder::new("gather", p);
        let pv = b.loop_var();
        let cv = b.idx_read(p, cell, pv, fcell);
        let v = b.val_read(c, val, cv);
        b.val_write(p, out, pv, VExpr::var(v));
        let lp = b.finish();
        run_loop_seq(&lp, &mut store, &fns);
        assert_eq!(store.f64s(out), &[10.0, 20.0, 30.0, 40.0, 10.0, 20.0]);
    }

    #[test]
    fn uncentered_reduction_scatter() {
        // Figure 7: for i in R: S[g(i)] += R[i], with g(i) = i/2.
        let mut schema = Schema::new();
        let r = schema.add_region("R", 8);
        let s_ = schema.add_region("S", 4);
        let rx = schema.add_field(r, "x", FieldKind::F64);
        let sx = schema.add_field(s_, "x", FieldKind::F64);
        let mut store = Store::new(schema);
        for i in 0..8 {
            store.f64s_mut(rx)[i] = 1.0;
        }
        let mut fns = FnTable::new();
        // g(i) = i / 2 is not affine in our function language; emulate with
        // a pointer field.
        let gptr = schema_add_ptr(&mut store, r, s_, "g", &[0, 0, 1, 1, 2, 2, 3, 3]);
        let g = fns.add_ptr_field("g", r, s_, gptr);
        let mut b = LoopBuilder::new("scatter", r);
        let i = b.loop_var();
        let v = b.val_read(r, rx, i);
        let gi = b.idx_read(r, gptr, i, g);
        b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
        let lp = b.finish();
        run_loop_seq(&lp, &mut store, &fns);
        assert_eq!(store.f64s(sx), &[2.0, 2.0, 2.0, 2.0]);
    }

    // Adds a pointer field to an existing store (test helper: rebuilds the
    // store because schemas are immutable once the store exists).
    fn schema_add_ptr(
        store: &mut Store,
        owner: partir_dpl::region::RegionId,
        target: partir_dpl::region::RegionId,
        name: &str,
        vals: &[Idx],
    ) -> FieldId {
        let mut schema = store.schema().clone();
        let f = schema.add_field(owner, name, FieldKind::Ptr(target));
        let mut new_store = Store::new(schema);
        // Copy existing data.
        for fid in 0..store.schema().num_fields() {
            let fid = FieldId(fid as u32);
            *new_store.field_data_mut(fid) = store.field_data(fid).clone();
        }
        new_store.ptrs_mut(f).copy_from_slice(vals);
        *store = new_store;
        f
    }

    #[test]
    fn foreach_csr_row_sum() {
        // for i in Y: for k in Ranges(i): Y[i] += Mat[k]
        let mut schema = Schema::new();
        let mat = schema.add_region("Mat", 6);
        let y = schema.add_region("Y", 3);
        let yv = schema.add_field(y, "v", FieldKind::F64);
        let rf = schema.add_field(y, "range", FieldKind::Range(mat));
        let mv = schema.add_field(mat, "v", FieldKind::F64);
        let mut store = Store::new(schema);
        store.ranges_mut(rf).copy_from_slice(&[(0, 2), (2, 3), (3, 6)]);
        store.f64s_mut(mv).copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut fns = FnTable::new();
        let ranges = fns.add_range_field("Ranges", y, mat, rf);
        let mut b = LoopBuilder::new("rowsum", y);
        let i = b.loop_var();
        let k = b.begin_for_each(ranges, i);
        let v = b.val_read(mat, mv, k);
        b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::var(v));
        b.end_for_each();
        let lp = b.finish();
        run_loop_seq(&lp, &mut store, &fns);
        assert_eq!(store.f64s(yv), &[3.0, 3.0, 15.0]);
    }

    #[test]
    fn run_loop_over_subset_touches_only_subset() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let fx = schema.add_field(r, "x", FieldKind::F64);
        let mut store = Store::new(schema);
        let fns = FnTable::new();
        let mut b = LoopBuilder::new("ones", r);
        let i = b.loop_var();
        b.val_write(r, fx, i, VExpr::Const(1.0));
        let lp = b.finish();
        let mut ctx = SeqCtx::new(&mut store, &fns);
        run_loop_over(&lp, &mut ctx, [2u64, 5, 7].into_iter());
        let got = store.f64s(fx);
        for (i, &v) in got.iter().enumerate().take(10) {
            assert_eq!(v, if [2, 5, 7].contains(&i) { 1.0 } else { 0.0 });
        }
    }
}
