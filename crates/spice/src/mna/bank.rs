//! Every MOSFET of a compiled circuit in one structure-of-arrays pass.
//!
//! A [`DeviceBank`] holds the bias-independent factors of each device
//! (those of [`IdsStencil`]) and its four terminal unknowns in blocks of
//! [`W`] devices, one array per field. One branch-free kernel evaluates
//! the nine finite-difference points of every device of a block lane by
//! lane and writes the linearised drain current's values: the four
//! partials, their negations, the equivalent current `ieq` and its
//! negation, one row of `W` per value.
//!
//! The kernel does the scalar path's operations in the scalar path's
//! order, with selects in place of its branches (source/drain swap,
//! region, threshold memo). Every operation is correctly rounded and Rust
//! never contracts `a·b + c`, so each lane gives the bits of
//! [`IdsStencil::eval`] followed by the stamp's `linearized`, whatever
//! instructions carry it. The body is compiled twice: for the build's
//! baseline target, and inside one `avx2` entry that [`DeviceBank`]
//! dispatches to when the CPU has AVX2 (DESIGN.md §9.18).

use super::{FD_STEP, GROUND};
use crate::mosfet::IdsStencil;

/// Devices per block.
pub(crate) const W: usize = 8;

/// Values the kernel writes per device: `∂I/∂v ×4`, negated `×4`,
/// `ieq`, `−ieq` (terminal order g, d, s, b).
pub(crate) const OUT: usize = 10;

/// The instruction set a bank's kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The build's target features (SSE2 on x86_64).
    Baseline,
    /// The same body compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The best kernel this CPU runs.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Baseline
    }

    /// `"avx2"` or `"baseline"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "avx2",
        }
    }
}

/// `N` devices, one array per field of [`IdsStencil`], and their
/// terminal unknowns (g, d, s, b; [`GROUND`] for ground).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<const N: usize> {
    sgn: [f64; N],
    beta: [f64; N],
    lambda: [f64; N],
    vt0: [f64; N],
    gamma: [f64; N],
    phi: [f64; N],
    sqrt_phi: [f64; N],
    cox_total: [f64; N],
    cov: [f64; N],
    cgb_ov: [f64; N],
    terms: [[u32; N]; 4],
}

impl<const N: usize> Block<N> {
    /// A block of unused lanes: grounded terminals and finite factors, so
    /// the kernel computes (and nobody reads) finite values there.
    const PAD: Self = Block {
        sgn: [1.0; N],
        beta: [0.0; N],
        lambda: [0.0; N],
        vt0: [0.0; N],
        gamma: [0.0; N],
        phi: [1.0; N],
        sqrt_phi: [1.0; N],
        cox_total: [0.0; N],
        cov: [0.0; N],
        cgb_ov: [0.0; N],
        terms: [[GROUND; N]; 4],
    };

    /// Lane `i`'s factors and terminals. Only the fields whose bits
    /// differ are stored: a Monte-Carlo lane reloads circuits that differ
    /// in a few devices, and storing into every field's line of every
    /// block made `CscProgram::load` a third slower.
    fn set(&mut self, i: usize, s: &IdsStencil, terms: [u32; 4]) {
        fn put(slot: &mut f64, v: f64) {
            if slot.to_bits() != v.to_bits() {
                *slot = v;
            }
        }
        put(&mut self.sgn[i], s.sgn);
        put(&mut self.beta[i], s.beta);
        put(&mut self.lambda[i], s.lambda);
        put(&mut self.vt0[i], s.vt0);
        put(&mut self.gamma[i], s.gamma);
        put(&mut self.phi[i], s.phi);
        put(&mut self.sqrt_phi[i], s.sqrt_phi);
        put(&mut self.cox_total[i], s.cox_total);
        put(&mut self.cov[i], s.cov);
        put(&mut self.cgb_ov[i], s.cgb_ov);
        for (k, t) in terms.into_iter().enumerate() {
            if self.terms[k][i] != t {
                self.terms[k][i] = t;
            }
        }
    }

    fn stencil(&self, i: usize) -> IdsStencil {
        IdsStencil {
            sgn: self.sgn[i],
            beta: self.beta[i],
            lambda: self.lambda[i],
            vt0: self.vt0[i],
            gamma: self.gamma[i],
            phi: self.phi[i],
            sqrt_phi: self.sqrt_phi[i],
            cox_total: self.cox_total[i],
            cov: self.cov[i],
            cgb_ov: self.cgb_ov[i],
        }
    }
}

/// The factors one lane's arithmetic reads.
#[derive(Clone, Copy)]
struct Lane {
    sgn: f64,
    beta: f64,
    lambda: f64,
    vt0: f64,
    gamma: f64,
    phi: f64,
    sqrt_phi: f64,
}

impl Lane {
    /// `IdsStencil::vth`.
    #[inline(always)]
    fn vth(&self, vbs: f64) -> f64 {
        let arg = (self.phi - vbs).max(1e-3);
        self.vt0 + self.gamma * (arg.sqrt() - self.sqrt_phi)
    }

    /// The drain current at physical terminal voltages `(vg, vd, vs, vb)`:
    /// `IdsStencil::bias`, `vth` and `ids`, with selects for the swap and
    /// the region. Evaluating the threshold at every point gives the
    /// memo's bits, since `vth` of equal bits is the memoised value.
    #[inline(always)]
    fn ids(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> f64 {
        let sgn = self.sgn;
        let (vg, vd, vs, vb) = (sgn * vg, sgn * vd, sgn * vs, sgn * vb);
        let swapped = vd < vs;
        let d = if swapped { vs } else { vd };
        let s = if swapped { vd } else { vs };
        let (vgs, vds, vbs) = (vg - s, d - s, (vb - s).min(0.0));
        let vgst = vgs - self.vth(vbs);
        let (beta, lambda) = (self.beta, self.lambda);
        let triode = beta * (vgst * vds - 0.5 * vds * vds) * (1.0 + lambda * vds);
        let saturation = 0.5 * beta * vgst * vgst * (1.0 + lambda * vds);
        let on = if vds < vgst { triode } else { saturation };
        let ids = if vgst <= 0.0 { 0.0 } else { on };
        let ids = if swapped { -ids } else { ids };
        ids * sgn
    }

    /// `IdsStencil::eval` at `v` with step [`FD_STEP`], then the stamp's
    /// `linearized` over the same voltages.
    #[inline(always)]
    fn eval(&self, v: [f64; 4]) -> [f64; OUT] {
        let h = FD_STEP;
        let [vg, vd, vs, vb] = v;
        let slope = |plus: f64, minus: f64| (plus - minus) / (2.0 * h);
        let g = [
            slope(self.ids(vg + h, vd, vs, vb), self.ids(vg - h, vd, vs, vb)),
            slope(self.ids(vg, vd + h, vs, vb), self.ids(vg, vd - h, vs, vb)),
            slope(self.ids(vg, vd, vs + h, vb), self.ids(vg, vd, vs - h, vb)),
            slope(self.ids(vg, vd, vs, vb + h), self.ids(vg, vd, vs, vb - h)),
        ];
        let mut ieq = -self.ids(vg, vd, vs, vb);
        for k in 0..4 {
            ieq += g[k] * v[k];
        }
        [
            g[0], g[1], g[2], g[3], -g[0], -g[1], -g[2], -g[3], ieq, -ieq,
        ]
    }
}

/// The kernel body: every device of `blocks` at the unknowns `x`, into
/// `out` (`OUT` rows of `N` per block).
#[inline(always)]
fn eval_blocks<const N: usize>(blocks: &[Block<N>], x: &[f64], out: &mut [[f64; N]]) {
    for (b, out) in blocks.iter().zip(out.chunks_exact_mut(OUT)) {
        let mut v = [[0.0; N]; 4];
        for (vk, tk) in v.iter_mut().zip(&b.terms) {
            for (v, &t) in vk.iter_mut().zip(tk) {
                *v = if t == GROUND { 0.0 } else { x[t as usize] };
            }
        }
        for i in 0..N {
            let lane = Lane {
                sgn: b.sgn[i],
                beta: b.beta[i],
                lambda: b.lambda[i],
                vt0: b.vt0[i],
                gamma: b.gamma[i],
                phi: b.phi[i],
                sqrt_phi: b.sqrt_phi[i],
            };
            let vals = lane.eval([v[0][i], v[1][i], v[2][i], v[3][i]]);
            for (row, val) in out.iter_mut().zip(vals) {
                row[i] = val;
            }
        }
    }
}

/// The kernel for the build's baseline target.
#[inline(never)]
fn eval_baseline(blocks: &[Block<W>], x: &[f64], out: &mut [[f64; W]]) {
    eval_blocks(blocks, x, out);
}

/// The same kernel compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn eval_avx2(blocks: &[Block<W>], x: &[f64], out: &mut [[f64; W]]) {
    eval_blocks(blocks, x, out);
}

/// The MOSFETs of one compiled circuit, in element order, and the kernel
/// that evaluates them.
#[derive(Debug, Clone)]
pub(crate) struct DeviceBank {
    blocks: Vec<Block<W>>,
    len: usize,
    kernel: Kernel,
}

impl DeviceBank {
    /// A bank of `len` devices, each to be [`set`](Self::set).
    pub(crate) fn new(len: usize) -> Self {
        DeviceBank {
            blocks: vec![Block::PAD; len.div_ceil(W)],
            len,
            kernel: Kernel::detect(),
        }
    }

    /// How many devices the bank holds.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Makes room for `len` devices, each to be [`set`](Self::set): a
    /// bank of another length starts over from unused lanes.
    pub(crate) fn resize(&mut self, len: usize) {
        if self.len != len {
            self.blocks.clear();
            self.blocks.resize(len.div_ceil(W), Block::PAD);
            self.len = len;
        }
    }

    /// Device `k`'s factors and terminal unknowns.
    pub(crate) fn set(&mut self, k: usize, stencil: &IdsStencil, terms: [u32; 4]) {
        self.blocks[k / W].set(k % W, stencil, terms);
    }

    /// Device `k`'s factors.
    pub(crate) fn stencil(&self, k: usize) -> IdsStencil {
        self.blocks[k / W].stencil(k % W)
    }

    /// Length of the output [`eval`](Self::eval) writes.
    pub(crate) fn out_len(&self) -> usize {
        self.blocks.len() * OUT * W
    }

    /// Where value `v` (`< OUT`) of device `k` sits in the output.
    pub(crate) fn out_slot(k: usize, v: usize) -> usize {
        (k / W) * OUT * W + v * W + k % W
    }

    /// The kernel [`eval`](Self::eval) runs.
    #[cfg(test)]
    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Runs the baseline kernel from now on (results are bit-identical;
    /// tests compare the two).
    pub(crate) fn force_baseline(&mut self) {
        self.kernel = Kernel::Baseline;
    }

    /// Evaluates every device at the unknowns `x` into `out` (of
    /// [`out_len`](Self::out_len), see [`out_slot`](Self::out_slot)).
    pub(crate) fn eval(&self, x: &[f64], out: &mut [f64]) {
        let (out, _) = out[..self.out_len()].as_chunks_mut::<W>();
        match self.kernel {
            Kernel::Baseline => eval_baseline(&self.blocks, x, out),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                // SAFETY: `eval_avx2` requires only that the CPU has AVX2,
                // and `Kernel::Avx2` is set only where
                // `is_x86_feature_detected!("avx2")` said so. The kernel
                // touches memory only through its safe reference arguments.
                #[allow(unsafe_code)]
                unsafe {
                    eval_avx2(&self.blocks, x, out)
                }
            }
        }
    }
}

/// One device with factors `stencil` on the terminal unknowns `terms`, at
/// the unknowns `x`: the bank's kernel at a block of one, into `out`.
pub(crate) fn eval_one(stencil: &IdsStencil, terms: [u32; 4], x: &[f64], out: &mut [f64]) {
    let mut block = Block::<1>::PAD;
    block.set(0, stencil, terms);
    let mut rows = [[0.0; 1]; OUT];
    eval_blocks(&[block], x, &mut rows);
    for (o, [v]) in out.iter_mut().zip(rows) {
        *o = v;
    }
}

/// The name of the device kernel this CPU dispatches to: `"avx2"` or
/// `"baseline"`.
pub fn device_kernel() -> &'static str {
    Kernel::detect().name()
}

#[cfg(test)]
mod tests {
    use super::super::{linearized, MnaLayout, Op, Seen};
    use super::*;
    use crate::circuit::{Circuit, Element};
    use crate::mosfet::{eval_mosfet, MosParams, MosRegion, MosType};

    /// A deterministic xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.next() as usize % from.len()]
        }
    }

    /// The scalar path: `IdsStencil::eval` and the stamp's `linearized`.
    fn oracle(s: &IdsStencil, v: [f64; 4]) -> [f64; OUT] {
        let (ids, g) = s.eval(v[0], v[1], v[2], v[3], FD_STEP);
        let mut vals = [0.0; OUT];
        linearized(v, ids, g, &mut vals);
        vals
    }

    /// Bits, with every NaN read as one: Rust leaves the sign and payload
    /// of a NaN result unspecified, whatever instructions make it.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    const SPECIAL: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-300,
        -5e-324,
    ];

    /// A terminal voltage: mostly a supply-range draw, sometimes an exact
    /// grid value (ties between terminals make the swap and region
    /// edges), sometimes a special value.
    fn voltage(rng: &mut Rng) -> f64 {
        match rng.next() % 16 {
            0 => rng.pick(&SPECIAL),
            1..=4 => rng.pick(&[-0.3, 0.0, 0.25, 0.45, 0.9, 1.8]),
            _ => rng.uniform(-0.6, 2.4),
        }
    }

    /// Terminal unknowns of one grounded-terminal class (g, d, s, b), the
    /// I&D's four and a floating and fully grounded one.
    fn terms(class: usize, base: u32) -> [u32; 4] {
        let [g, d, s, b] = [base, base + 1, base + 2, base + 3];
        match class {
            0 => [g, d, s, b],
            1 => [g, d, s, GROUND],
            2 => [g, d, GROUND, GROUND],
            3 => [g, GROUND, s, b],
            4 => [GROUND, d, GROUND, b],
            _ => [GROUND; 4],
        }
    }

    /// Every lane of a bank, at each kernel, gives the scalar path's bits
    /// (NaN as NaN), over random devices of both polarities and both
    /// thresholds in every grounded-terminal class, at random, tied and
    /// special voltages. The draw reaches every region, source/drain
    /// swaps, forward body bias and a zero `ieq`.
    #[test]
    fn bank_matches_the_scalar_stencil_bit_for_bit() {
        let models = [
            MosParams::nmos_018(),
            MosParams::pmos_018(),
            MosParams::nmos_lv_018(),
            MosParams::pmos_lv_018(),
        ];
        let mut rng = Rng(0x5eed_0000_0000_0026);
        let (mut regions, mut swaps, mut forward, mut zero_ieq) = ([0usize; 3], 0, 0, 0);
        let mut classes = [0usize; 6];
        let mut specials = 0;
        for round in 0..200 {
            let len = 1 + rng.next() as usize % (3 * W);
            let mut bank = DeviceBank::new(len);
            let devices: Vec<_> = (0..len)
                .map(|k| {
                    let p = models[rng.next() as usize % models.len()].clone();
                    let (w, l) = (rng.uniform(0.5e-6, 30e-6), rng.uniform(0.18e-6, 2e-6));
                    let class = rng.next() as usize % 6;
                    classes[class] += 1;
                    let t = terms(class, 4 * k as u32);
                    bank.set(k, &IdsStencil::new(&p, w, l), t);
                    (p, w, l, t)
                })
                .collect();
            let x: Vec<f64> = (0..4 * len).map(|_| voltage(&mut rng)).collect();
            let mut kernels = vec![bank.clone()];
            kernels[0].force_baseline();
            if bank.kernel() != Kernel::Baseline {
                kernels.push(bank);
            }
            for bank in &kernels {
                let mut out = vec![f64::NAN; bank.out_len()];
                bank.eval(&x, &mut out);
                for (k, (p, w, l, t)) in devices.iter().enumerate() {
                    let stencil = IdsStencil::new(p, *w, *l);
                    let v = t.map(|t| if t == GROUND { 0.0 } else { x[t as usize] });
                    let expect = oracle(&stencil, v);
                    let lane: [f64; OUT] = std::array::from_fn(|i| out[DeviceBank::out_slot(k, i)]);
                    // The one-shot assembly's block of one, too.
                    let mut one = [0.0; OUT];
                    eval_one(&stencil, *t, &x, &mut one);
                    for (kernel, got) in [(bank.kernel().name(), lane), ("block of one", one)] {
                        for (i, (got, e)) in got.iter().zip(&expect).enumerate() {
                            assert_eq!(
                                bits(*got),
                                bits(*e),
                                "{kernel} kernel, round {round}, device {k} ({:?}), value {i} \
                                 at {v:?}: {got:e} vs {e:e}",
                                p.ty,
                            );
                        }
                    }
                    zero_ieq += usize::from(expect[8] == 0.0);
                    if v.iter().any(|v| !v.is_finite() || *v == 0.0) {
                        specials += 1;
                        continue;
                    }
                    let (ev, swapped) = eval_mosfet(p, *w, *l, v[0], v[1], v[2], v[3]);
                    regions[ev.region as usize] += 1;
                    swaps += usize::from(swapped);
                    let sgn = if p.ty == MosType::Nmos { 1.0 } else { -1.0 };
                    let s = if swapped { v[1] } else { v[2] };
                    forward += usize::from(sgn * (v[3] - s) > 0.0);
                }
            }
        }
        assert!(
            regions.iter().all(|&c| c > 100) && swaps > 100 && forward > 100,
            "regions {regions:?} ({:?} order), {swaps} swaps, {forward} forward",
            [MosRegion::Cutoff, MosRegion::Triode, MosRegion::Saturation]
        );
        assert!(zero_ieq > 50, "{zero_ieq} zero ieq");
        assert!(specials > 100, "{specials} special biases");
        assert!(classes.iter().all(|&c| c > 100), "classes {classes:?}");
    }

    /// The MOSFETs of `tiles` integrate-and-dump cells side by side (the
    /// Monte-Carlo campaigns' array), with the circuit and their bank.
    fn tile_bank(tiles: usize) -> (Circuit, DeviceBank, Vec<(IdsStencil, [u32; 4])>) {
        let c = super::super::tests::tile_array(tiles);
        let layout = MnaLayout::new(&c);
        let mut seen = Seen::default();
        let mut devices = Vec::new();
        for (idx, (_, e)) in c.elements().enumerate() {
            let op = Op::compile(&c, &layout, (idx, e), &mut seen).unwrap();
            if let (Op::Mosfet { t, .. }, Element::Mosfet { model, w, l, .. }) = (op, e) {
                devices.push((IdsStencil::new(&c.models[*model].1, *w, *l), t.0));
            }
        }
        let mut bank = DeviceBank::new(devices.len());
        for (k, (s, t)) in devices.iter().enumerate() {
            bank.set(k, s, *t);
        }
        (c, bank, devices)
    }

    /// Device evaluation on the 8-tile array at its operating point: the
    /// scalar stencil loop against the bank at each kernel. A timing, not
    /// a check; run with
    /// `cargo test --release -p spice bank_speed -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn bank_speed_on_the_8_tile_array() {
        use std::time::Instant;
        let (c, bank, devices) = tile_bank(8);
        let x = crate::dcop::dcop(&c).unwrap().x;
        let reps = 2000;
        let mut out = vec![0.0; bank.out_len()];
        let mut vals = vec![0.0; devices.len() * OUT];
        let time = |f: &mut dyn FnMut()| {
            let mut best = f64::INFINITY;
            for _ in 0..15 {
                let t = Instant::now();
                for _ in 0..reps {
                    f();
                }
                best = best.min(t.elapsed().as_secs_f64() / reps as f64);
            }
            best
        };
        let scalar = time(&mut || {
            for ((s, t), vals) in devices.iter().zip(vals.chunks_exact_mut(OUT)) {
                let v = t.map(|t| if t == GROUND { 0.0 } else { x[t as usize] });
                let (ids, g) = s.eval(v[0], v[1], v[2], v[3], FD_STEP);
                linearized(v, ids, g, vals);
            }
            std::hint::black_box(&mut vals);
        });
        let mut baseline = bank.clone();
        baseline.force_baseline();
        let base = time(&mut || {
            baseline.eval(std::hint::black_box(&x), &mut out);
            std::hint::black_box(&mut out);
        });
        let dispatched = time(&mut || {
            bank.eval(std::hint::black_box(&x), &mut out);
            std::hint::black_box(&mut out);
        });
        let n = devices.len() as f64;
        println!(
            "{} devices: scalar {:.1} ns/device, baseline bank {:.1} ns/device ({:.2}x), \
             {} bank {:.1} ns/device ({:.2}x)",
            devices.len(),
            scalar / n * 1e9,
            base / n * 1e9,
            scalar / base,
            bank.kernel().name(),
            dispatched / n * 1e9,
            scalar / dispatched,
        );
    }
}
