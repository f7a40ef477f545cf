//! Launch-invariant block addressing, shared by the lane engine
//! ([`crate::lanes`]) and Tier-2 ([`crate::tier`]).
//!
//! Both engines run a kernel over blocks of [`LANES`] consecutive
//! domain elements. Before each block they need every lane's element
//! offset into each elementwise input and every lane's `indexof` value;
//! after it they flush the staged output slabs. Everything those steps
//! compute depends only on the launch (bindings, domain, range), not
//! on the block, so [`BlockLayout::bind`] resolves it **once per
//! launch**:
//!
//! * **Separable tables.** The proportional addressing of a 2-D stream
//!   ([`input_index`]) is separable in x and y, so the layout fills one
//!   table per axis by calling `input_index` itself on `(x, 0)` and
//!   `(0, y)` — bit-exact by construction. `indexof` values come from
//!   [`indexof_elem`] / [`indexof_pos`] the same way. 1-D streams use
//!   `min(p, len - 1)`. The block loop carries `(x, y)` forward instead
//!   of dividing per lane.
//! * **Contiguous inputs.** An input whose tables *show* the identity
//!   map (offset of domain position `p` is `p * w` over the whole
//!   range) is marked contiguous. Under a full mask, element reads copy
//!   the block's span at `base * w` ([`BlockIo::span`]); partial masks
//!   keep the per-lane path, so inactive lanes' slab values stay
//!   untouched.
//! * **Span copies.** Output preload and write-back move whole blocks
//!   between the component-major slabs and the element-major buffers
//!   ([`aos_to_soa`], [`soa_to_aos`]).
//!
//! [`BlockLayout::drive`] is the one block loop both engines run:
//! address, preload, execute, then either flush or hand exactly that
//! block to the engine's fallback (which reproduces the scalar path's
//! partial writes and fault attribution).

use crate::interp::{domain_extents, indexof_elem, indexof_pos, input_index, Binding, ExecError};
use crate::lanes::{LaneKernel, LaneTy, Mask, FULL, LANES};
use crate::IrKernel;
use glsl_es::Value;
use std::ops::Range;

/// What the compiled steps read per block: the validated bindings, the
/// per-lane element offsets and `indexof` values of the current block,
/// and the launch's scalar payloads.
pub(crate) struct BlockIo<'a> {
    pub(crate) bindings: &'a [Binding<'a>],
    /// Per elem slot: backing data and per-lane element offsets.
    pub(crate) elem_data: Vec<&'a [f32]>,
    pub(crate) elem_off: Vec<[usize; LANES]>,
    /// Per elem slot: whether the slot's offsets are `p * w` over the
    /// whole range (launch-invariant).
    contig: Vec<bool>,
    /// Per elem slot: the planned element width.
    elem_w: Vec<usize>,
    /// First domain element of the current block.
    base: usize,
    /// Per scalar slot: pre-split lanes / int payloads.
    pub(crate) scalar_f: Vec<[f32; 4]>,
    pub(crate) scalar_i: Vec<i32>,
    /// Per indexof slot: per-lane `indexof` value.
    pub(crate) idx_vals: Vec<[[f32; 2]; LANES]>,
    /// Maximum `indexof` component values of this launch's domain
    /// ([`crate::eval::indexof_comp_max`]) — the runtime half of
    /// [`crate::ProvenIdx::IndexofRel`] clamp elision.
    pub(crate) comp_max: [i64; 2],
}

impl<'a> BlockIo<'a> {
    /// The current block's `LANES * w` input floats of elem slot `slot`
    /// when the slot is contiguous and every lane is active (`m ==
    /// FULL`, which implies a whole block); `None` otherwise, and the
    /// caller walks `elem_off` under its mask.
    #[inline]
    pub(crate) fn span(&self, slot: usize, m: Mask) -> Option<&'a [f32]> {
        if m == FULL && self.contig[slot] {
            let w = self.elem_w[slot];
            let s = self.base * w;
            Some(&self.elem_data[slot][s..s + LANES * w])
        } else {
            None
        }
    }
}

/// How domain positions map to one binding's per-lane values.
enum Addr<T> {
    /// Separable: the value at `(x, y)` combines `col[x - x0]` and
    /// `row[y - y0]`.
    Sep { col: Vec<T>, row: Vec<T> },
    /// A function of the linear position `p`, clamped to `last`.
    Lin { last: usize },
}

impl<T> Addr<T> {
    /// Separable tables over the column window `xs` and row window
    /// `ys`.
    fn sep(xs: &Range<usize>, ys: &Range<usize>, col: impl Fn(usize) -> T, row: impl Fn(usize) -> T) -> Self {
        Addr::Sep {
            col: xs.clone().map(col).collect(),
            row: ys.clone().map(row).collect(),
        }
    }
}

impl Addr<usize> {
    /// Whether separable offset tables map every `(x, y)` of the window
    /// to `(y * dx + x) * w` — domain position `p` to `p * w`.
    fn is_identity(&self, xs: &Range<usize>, ys: &Range<usize>, dx: usize, w: usize) -> bool {
        match self {
            Addr::Sep { col, row } => {
                col.iter().zip(xs.clone()).all(|(&o, x)| o == x * w)
                    && row.iter().zip(ys.clone()).all(|(&o, y)| o == y * dx * w)
            }
            Addr::Lin { .. } => false,
        }
    }
}

/// The per-launch address plan of one launch range: output routing,
/// the per-input tables and the table window.
pub(crate) struct BlockLayout<'k> {
    lane: &'k LaneKernel,
    /// Output slot -> index into the output buffer list.
    out_buf: Vec<usize>,
    /// Per output buffer: the planned width, if a slot writes it.
    buf_width: Vec<Option<usize>>,
    elems: Vec<Addr<usize>>,
    idxs: Vec<Addr<f32>>,
    /// Domain row length and the table window's origin.
    dx: usize,
    x0: usize,
    y0: usize,
    /// Whether any table is separable (the block loop needs `(x, y)`).
    separable: bool,
    range: Range<usize>,
}

/// The window of domain columns and rows a range touches: one partial
/// row when the range stays inside a row, whole rows otherwise.
fn window(range: &Range<usize>, dx: usize) -> (Range<usize>, Range<usize>) {
    if range.is_empty() {
        return (0..0, 0..0);
    }
    let (ys, ye) = (range.start / dx, (range.end - 1) / dx);
    if ys == ye {
        (range.start % dx..(range.end - 1) % dx + 1, ys..ys + 1)
    } else {
        (0..dx, ys..ye + 1)
    }
}

impl<'k> BlockLayout<'k> {
    /// Validates `bindings` against the lane plan and resolves every
    /// launch-invariant address. `None` when a binding does not match
    /// the plan (unexpected kind, width or scalar type, or an `indexof`
    /// of a gather): the caller then runs the whole range through its
    /// fallback, which owns the error surface.
    pub(crate) fn bind<'a>(
        lane: &'k LaneKernel,
        kernel: &IrKernel,
        bindings: &'a [Binding<'a>],
        n_outputs: usize,
        domain_shape: &[usize],
        range: Range<usize>,
    ) -> Option<(Self, BlockIo<'a>)> {
        let (dx, dy, linear) = domain_extents(domain_shape);
        debug_assert!(range.end <= dx * dy, "domain range exceeds the domain");
        let mut out_buf = Vec::with_capacity(kernel.outputs.len());
        for (slot, _) in kernel.output_params() {
            match &bindings[kernel.outputs[slot as usize] as usize] {
                Binding::Out(i) => out_buf.push(*i),
                _ => return None,
            }
        }
        let mut buf_width: Vec<Option<usize>> = vec![None; n_outputs];
        for (slot, bi) in out_buf.iter().enumerate() {
            buf_width[*bi] = Some(lane.out_w[slot] as usize);
        }
        let mut scalar_f = vec![[0.0f32; 4]; lane.scalar_params.len()];
        let mut scalar_i = vec![0i32; lane.scalar_params.len()];
        for (slot, (pi, ty)) in lane.scalar_params.iter().enumerate() {
            match &bindings[*pi as usize] {
                Binding::Scalar(v) if LaneTy::of_value(v) == *ty => match v {
                    Value::Int(x) => scalar_i[slot] = *x,
                    other => {
                        scalar_f[slot][..other.lanes().len()].copy_from_slice(other.lanes());
                    }
                },
                _ => return None,
            }
        }
        for (pi, w) in &lane.gather_params {
            match &bindings[*pi as usize] {
                Binding::Gather { width, .. } if width == w => {}
                _ => return None,
            }
        }
        let (xs, ys) = window(&range, dx);
        let (x0, y0) = (xs.start, ys.start);
        let mut elem_data = Vec::with_capacity(lane.elem_params.len());
        let mut elem_w = Vec::with_capacity(lane.elem_params.len());
        let mut contig = Vec::with_capacity(lane.elem_params.len());
        let mut elems = Vec::with_capacity(lane.elem_params.len());
        for (pi, w) in &lane.elem_params {
            let Binding::Elem { data, shape, width } = &bindings[*pi as usize] else {
                return None;
            };
            if width != w {
                return None;
            }
            let w = *w as usize;
            let (addr, is_contig) = if shape.len() == 2 {
                let at = |pos| input_index(pos, (dx, dy), shape);
                let cols = shape[1];
                let addr = Addr::sep(&xs, &ys, |x| at((x, 0)).0 * w, |y| at((0, y)).1 * cols * w);
                let is_contig = addr.is_identity(&xs, &ys, dx, w);
                (addr, is_contig)
            } else {
                let len: usize = shape.iter().product();
                let last = len.saturating_sub(1);
                (Addr::Lin { last }, range.end <= len)
            };
            elem_data.push(*data);
            elem_w.push(w);
            contig.push(is_contig);
            elems.push(addr);
        }
        let mut idxs = Vec::with_capacity(lane.indexof_params.len());
        for pi in &lane.indexof_params {
            let addr = match &bindings[*pi as usize] {
                Binding::Elem { shape, .. } if shape.len() == 2 => {
                    let at = |pos| indexof_elem(pos, (dx, dy), shape);
                    Addr::sep(&xs, &ys, |x| at((x, 0))[0], |y| at((0, y))[1])
                }
                Binding::Elem { shape, .. } => Addr::Lin {
                    last: shape.iter().product::<usize>().saturating_sub(1),
                },
                Binding::Out(_) | Binding::Scalar(_) if linear => Addr::Lin { last: usize::MAX },
                Binding::Out(_) | Binding::Scalar(_) => {
                    let at = |pos| indexof_pos(pos, (dx, dy), false);
                    Addr::sep(&xs, &ys, |x| at((x, 0))[0], |y| at((0, y))[1])
                }
                // `indexof` of a gather faults in the scalar path; let
                // the fallback raise it.
                Binding::Gather { .. } => return None,
            };
            idxs.push(addr);
        }
        let separable = elems
            .iter()
            .zip(&contig)
            .any(|(a, &c)| !c && matches!(a, Addr::Sep { .. }))
            || idxs.iter().any(|a| matches!(a, Addr::Sep { .. }));
        let io = BlockIo {
            bindings,
            elem_off: vec![[0; LANES]; elem_data.len()],
            elem_data,
            contig,
            elem_w,
            base: range.start,
            scalar_f,
            scalar_i,
            idx_vals: vec![[[0.0; 2]; LANES]; idxs.len()],
            comp_max: crate::eval::indexof_comp_max((dx, dy), linear),
        };
        let layout = Self {
            lane,
            out_buf,
            buf_width,
            elems,
            idxs,
            dx,
            x0,
            y0,
            separable,
            range,
        };
        Some((layout, io))
    }

    /// Fills the per-lane tables of the `n`-lane block at `base`.
    fn address(&self, io: &mut BlockIo<'_>, base: usize, n: usize) {
        io.base = base;
        // Table-relative (x, y) per lane, carried forward from one
        // division per block.
        let mut pos = [(0usize, 0usize); LANES];
        if self.separable {
            let (mut x, mut y) = (base % self.dx, base / self.dx);
            for p in &mut pos[..n] {
                *p = (x - self.x0, y - self.y0);
                x += 1;
                if x == self.dx {
                    x = 0;
                    y += 1;
                }
            }
        }
        for (slot, addr) in self.elems.iter().enumerate() {
            let w = io.elem_w[slot];
            let off = &mut io.elem_off[slot][..n];
            if io.contig[slot] {
                for (l, o) in off.iter_mut().enumerate() {
                    *o = (base + l) * w;
                }
                continue;
            }
            match addr {
                Addr::Sep { col, row } => {
                    for (o, &(x, y)) in off.iter_mut().zip(&pos) {
                        *o = col[x] + row[y];
                    }
                }
                Addr::Lin { last } => {
                    for (l, o) in off.iter_mut().enumerate() {
                        *o = (base + l).min(*last) * w;
                    }
                }
            }
        }
        for (slot, addr) in self.idxs.iter().enumerate() {
            let vals = &mut io.idx_vals[slot][..n];
            match addr {
                Addr::Sep { col, row } => {
                    for (v, &(x, y)) in vals.iter_mut().zip(&pos) {
                        *v = [col[x], row[y]];
                    }
                }
                Addr::Lin { last } => {
                    for (l, v) in vals.iter_mut().enumerate() {
                        *v = [(base + l).min(*last) as f32, 0.0];
                    }
                }
            }
        }
    }

    /// The block loop both engines run. For each block: fill the
    /// per-lane tables, stage current output contents where the plan
    /// says the block can observe or leave them, run `exec` under the
    /// block mask, then flush the staged outputs — or, when `exec`
    /// bails (`false`), hand exactly that block to `fallback` with
    /// output slices covering it. No staged write has touched the real
    /// buffers at that point.
    ///
    /// # Errors
    /// Whatever `fallback` reports for a bailed block.
    pub(crate) fn drive<'a, E: BlockFrame<'a>>(
        &self,
        eng: &mut E,
        outputs: &mut [&mut [f32]],
        mut exec: impl FnMut(&mut E, Mask) -> bool,
        mut fallback: impl FnMut(&mut [&mut [f32]], Range<usize>) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let lane = self.lane;
        let start = self.range.start;
        let mut base = start;
        while base < self.range.end {
            let n = (self.range.end - base).min(LANES);
            let mask: Mask = if n == LANES { FULL } else { (1 << n) - 1 };
            let (io, f) = eng.parts();
            self.address(io, base, n);
            for (slot, &bi) in self.out_buf.iter().enumerate() {
                if lane.out_preload[slot] {
                    let (w, off) = (lane.out_w[slot] as usize, lane.out_off[slot] as usize);
                    let s = (base - start) * w;
                    aos_to_soa(&mut f[off..off + w * LANES], &outputs[bi][s..s + n * w], w, n);
                }
            }
            if exec(eng, mask) {
                let (_, f) = eng.parts();
                for (slot, &bi) in self.out_buf.iter().enumerate() {
                    let (w, off) = (lane.out_w[slot] as usize, lane.out_off[slot] as usize);
                    let s = (base - start) * w;
                    soa_to_aos(&mut outputs[bi][s..s + n * w], &f[off..off + w * LANES], w, n);
                }
            } else {
                let mut slices: Vec<&mut [f32]> = Vec::with_capacity(outputs.len());
                for (bi, out) in outputs.iter_mut().enumerate() {
                    match self.buf_width[bi] {
                        Some(w) => {
                            let s = (base - start) * w;
                            slices.push(&mut out[s..s + n * w]);
                        }
                        None => slices.push(&mut out[0..0]),
                    }
                }
                fallback(&mut slices, base..base + n)?;
            }
            base += n;
        }
        Ok(())
    }
}

/// An engine's view for [`BlockLayout::drive`]: its access tables and
/// its f32 slab arena (where output staging lives).
pub(crate) trait BlockFrame<'a> {
    fn parts(&mut self) -> (&mut BlockIo<'a>, &mut [f32]);
}

/// Copies `n` element-major values of width `w` (`src`, `n * w`
/// floats) into a component-major slab region (`dst`: component `c` of
/// lane `l` at `c * LANES + l`).
#[inline]
pub(crate) fn aos_to_soa(dst: &mut [f32], src: &[f32], w: usize, n: usize) {
    if w == 1 {
        dst[..n].copy_from_slice(src);
        return;
    }
    for (l, px) in src.chunks_exact(w).enumerate() {
        for (c, &v) in px.iter().enumerate() {
            dst[c * LANES + l] = v;
        }
    }
}

/// The inverse of [`aos_to_soa`]: `n` lanes of a component-major slab
/// region back to element-major order.
#[inline]
pub(crate) fn soa_to_aos(dst: &mut [f32], src: &[f32], w: usize, n: usize) {
    if w == 1 {
        dst.copy_from_slice(&src[..n]);
        return;
    }
    for (l, px) in dst.chunks_exact_mut(w).enumerate() {
        for (c, v) in px.iter_mut().enumerate() {
            *v = src[c * LANES + l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table entry equals the per-lane functions it replaces, at
    /// every position of every block, over a grid of domain and stream
    /// shapes (identity, larger, smaller, 1-D in 2-D, 2-D in linear)
    /// and sub-ranges (single partial rows, row-crossing ranges, ragged
    /// tails).
    #[test]
    fn tables_match_per_lane_addressing() {
        let checked = brook_lang::parse_and_check("kernel void k(float a<>, out float o<>) { o = a; }")
            .expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        let kernel = crate::lower::lower_kernel(&checked, kdef).expect("lower");
        let domains: [&[usize]; 6] = [&[37], &[16], &[1], &[5, 7], &[3, 33], &[9, 16]];
        let streams: [&[usize]; 9] = [
            &[37],
            &[20],
            &[1],
            &[64],
            &[5, 7],
            &[3, 33],
            &[11, 4],
            &[2, 50],
            &[1, 1],
        ];
        for dom in domains {
            let (dx, dy, linear) = domain_extents(dom);
            let total = dx * dy;
            let mut ranges = vec![0..total, 0..0];
            for s in [0, 1, 3, 6, 15, 17] {
                for e in [s + 1, s + 4, s + 16, s + 19, total] {
                    if s < e && e <= total {
                        ranges.push(s..e);
                    }
                }
            }
            for shape in streams {
                for w in [1u8, 3] {
                    let len: usize = shape.iter().product();
                    let data = vec![0.0f32; len * w as usize];
                    let bindings = [
                        Binding::Elem {
                            data: &data,
                            shape,
                            width: w,
                        },
                        Binding::Out(0),
                    ];
                    let lane = LaneKernel {
                        ops: Vec::new(),
                        op_start: Vec::new(),
                        f_len: 0,
                        i_len: 0,
                        b_len: 0,
                        cond_off: Vec::new(),
                        out_off: vec![0],
                        out_w: vec![1],
                        out_preload: vec![false],
                        elem_params: vec![(0, w)],
                        indexof_params: vec![0, 1],
                        scalar_params: Vec::new(),
                        gather_params: Vec::new(),
                    };
                    for range in &ranges {
                        let (layout, mut io) =
                            BlockLayout::bind(&lane, &kernel, &bindings, 1, dom, range.clone())
                                .expect("bind");
                        let cols = if shape.len() == 2 { shape[1] } else { len };
                        let mut identity = true;
                        let mut base = range.start;
                        while base < range.end {
                            let n = (range.end - base).min(LANES);
                            layout.address(&mut io, base, n);
                            for l in 0..n {
                                let p = base + l;
                                let pos = (p % dx, p / dx);
                                let (ix, iy) = input_index(pos, (dx, dy), shape);
                                let want = (iy * cols + ix) * w as usize;
                                identity &= want == p * w as usize;
                                let ctx =
                                    format!("domain {dom:?} stream {shape:?} w {w} range {range:?} p {p}");
                                assert_eq!(io.elem_off[0][l], want, "{ctx}");
                                let e = indexof_elem(pos, (dx, dy), shape);
                                let o = indexof_pos(pos, (dx, dy), linear);
                                for (got, want) in [(io.idx_vals[0][l], e), (io.idx_vals[1][l], o)] {
                                    assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "{ctx}");
                                }
                            }
                            base += n;
                        }
                        // Contiguity is never claimed where the map is
                        // not the identity.
                        assert!(
                            !io.contig[0] || identity,
                            "domain {dom:?} stream {shape:?} range {range:?}"
                        );
                        // And it is found on the plain same-shape case.
                        if shape == dom {
                            assert!(io.contig[0], "domain {dom:?} range {range:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn span_copies_round_trip() {
        for w in 1..=4 {
            for n in 1..=LANES {
                let src: Vec<f32> = (0..n * w).map(|v| v as f32).collect();
                let mut slab = vec![f32::NAN; w * LANES];
                aos_to_soa(&mut slab, &src, w, n);
                for l in 0..n {
                    for c in 0..w {
                        assert_eq!(slab[c * LANES + l], src[l * w + c]);
                    }
                }
                // Lanes past `n` are untouched.
                assert!(slab[n..LANES].iter().all(|v| v.is_nan()));
                let mut back = vec![0.0f32; n * w];
                soa_to_aos(&mut back, &slab, w, n);
                assert_eq!(back, src);
            }
        }
    }
}
