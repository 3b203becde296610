//! Level-1 (Shichman-Hodges) MOSFET model with body effect,
//! channel-length modulation and Meyer gate capacitances.
//!
//! The paper's circuit uses a UMC 0.18 µm mixed-mode process with both
//! normal- and low-threshold ("LV") devices; [`MosParams::nmos_018`] et al.
//! provide parameter decks of that class.

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 model parameters (SI units).
#[derive(Debug, Clone, PartialEq)]
pub struct MosParams {
    /// Polarity.
    pub ty: MosType,
    /// Zero-bias threshold voltage (positive for NMOS, negative for PMOS), V.
    pub vt0: f64,
    /// Transconductance parameter KP = µ0·Cox, A/V².
    pub kp: f64,
    /// Body-effect coefficient γ, √V.
    pub gamma: f64,
    /// Surface potential 2φF, V.
    pub phi: f64,
    /// Channel-length modulation λ at the 1 µm reference length, 1/V.
    /// The effective value scales as `λ · (1 µm / L)`, capturing the
    /// shorter-channel output-conductance degradation that level 2/3
    /// models include and that the paper's gain/pole trade-off rests on.
    pub lambda: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate-source/drain overlap capacitance per width, F/m.
    pub cgso: f64,
    /// Gate-bulk overlap capacitance per length, F/m.
    pub cgbo: f64,
    /// Zero-bias junction capacitance per area (source/drain), F/m².
    pub cj: f64,
}

impl MosParams {
    /// Standard-Vt NMOS of the 0.18 µm 1.8 V class.
    pub fn nmos_018() -> Self {
        MosParams {
            ty: MosType::Nmos,
            vt0: 0.45,
            kp: 300e-6,
            gamma: 0.45,
            phi: 0.85,
            lambda: 0.10,
            cox: 8.4e-3, // tox ≈ 4.1 nm
            cgso: 3.5e-10,
            cgbo: 4.0e-10,
            cj: 1.0e-3,
        }
    }

    /// Standard-Vt PMOS of the 0.18 µm 1.8 V class.
    pub fn pmos_018() -> Self {
        MosParams {
            ty: MosType::Pmos,
            vt0: -0.45,
            kp: 80e-6,
            gamma: 0.40,
            phi: 0.85,
            lambda: 0.12,
            cox: 8.4e-3,
            cgso: 3.5e-10,
            cgbo: 4.0e-10,
            cj: 1.1e-3,
        }
    }

    /// Low-Vt NMOS (the paper's "LV" devices: larger overdrive, used in the
    /// transconductor core).
    pub fn nmos_lv_018() -> Self {
        MosParams {
            vt0: 0.25,
            ..Self::nmos_018()
        }
    }

    /// Low-Vt PMOS.
    pub fn pmos_lv_018() -> Self {
        MosParams {
            vt0: -0.25,
            ..Self::pmos_018()
        }
    }

    /// Threshold voltage including body effect, for the *canonical*
    /// (NMOS-convention) bias `vbs ≤ 0`.
    pub fn vth(&self, vbs: f64) -> f64 {
        let phi = self.phi.max(0.1);
        let arg = (phi - vbs).max(1e-3);
        let vt0_mag = self.vt0.abs();
        vt0_mag + self.gamma * (arg.sqrt() - phi.sqrt())
    }
}

/// Small-signal and large-signal evaluation of one device at a bias point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosEval {
    /// Drain current (positive into the drain for NMOS convention), A.
    pub ids: f64,
    /// ∂Ids/∂Vgs, S.
    pub gm: f64,
    /// ∂Ids/∂Vds, S.
    pub gds: f64,
    /// ∂Ids/∂Vbs, S.
    pub gmbs: f64,
    /// Gate-source capacitance (Meyer + overlap), F.
    pub cgs: f64,
    /// Gate-drain capacitance, F.
    pub cgd: f64,
    /// Gate-bulk capacitance, F.
    pub cgb: f64,
    /// Operating region for diagnostics.
    pub region: MosRegion,
}

/// Operating region of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MosRegion {
    /// `vgs` below threshold.
    #[default]
    Cutoff,
    /// Linear / triode.
    Triode,
    /// Saturation.
    Saturation,
}

/// Level-1 drain current in canonical NMOS convention (`vds ≥ 0`), with
/// `lambda` already scaled to the channel length.
fn channel_current(beta: f64, lambda: f64, vgst: f64, vds: f64) -> f64 {
    if vgst <= 0.0 {
        0.0
    } else if vds < vgst {
        beta * (vgst * vds - 0.5 * vds * vds) * (1.0 + lambda * vds)
    } else {
        0.5 * beta * vgst * vgst * (1.0 + lambda * vds)
    }
}

/// Operating region at canonical overdrive `vgst` and `vds ≥ 0`: the
/// branches of [`channel_current`].
fn region(vgst: f64, vds: f64) -> MosRegion {
    if vgst <= 0.0 {
        MosRegion::Cutoff
    } else if vds < vgst {
        MosRegion::Triode
    } else {
        MosRegion::Saturation
    }
}

/// Meyer gate capacitances `[cgs, cgd, cgb]` in the canonical frame, from
/// the oxide capacitance `cox_total = cox·W·L`, the gate-source/drain
/// overlap `cov = cgso·W` and the gate-bulk overlap `cgb_ov = cgbo·L`.
fn meyer_caps(region: MosRegion, cox_total: f64, cov: f64, cgb_ov: f64) -> [f64; 3] {
    match region {
        MosRegion::Cutoff => [cov, cov, cox_total + cgb_ov],
        MosRegion::Triode => [0.5 * cox_total + cov, 0.5 * cox_total + cov, cgb_ov],
        MosRegion::Saturation => [(2.0 / 3.0) * cox_total + cov, cov, cgb_ov],
    }
}

/// Evaluates the level-1 equations in *canonical* NMOS convention:
/// the caller is responsible for polarity mapping and source/drain
/// swapping (see [`eval_mosfet`]).
fn eval_canonical(p: &MosParams, w: f64, l: f64, vgs: f64, vds: f64, vbs: f64) -> MosEval {
    debug_assert!(vds >= 0.0);
    let vth = p.vth(vbs.min(0.0));
    let beta = p.kp * w / l;
    let p = &MosParams {
        lambda: p.lambda * (1e-6 / l),
        ..p.clone()
    };
    let vgst = vgs - vth;

    // d(vth)/d(vbs): body transconductance factor.
    let phi = p.phi.max(0.1);
    let arg = (phi - vbs.min(0.0)).max(1e-3);
    let dvth_dvbs = if vbs < 0.0 {
        -p.gamma / (2.0 * arg.sqrt())
    } else {
        0.0
    };

    let ids = channel_current(beta, p.lambda, vgst, vds);
    let region = region(vgst, vds);
    let (gm, gds) = match region {
        MosRegion::Cutoff => (0.0, 0.0),
        MosRegion::Triode => {
            let gm = beta * vds * (1.0 + p.lambda * vds);
            let gds = beta
                * ((vgst - vds) * (1.0 + p.lambda * vds)
                    + (vgst * vds - 0.5 * vds * vds) * p.lambda);
            (gm, gds)
        }
        MosRegion::Saturation => {
            let gm = beta * vgst * (1.0 + p.lambda * vds);
            let gds = 0.5 * beta * vgst * vgst * p.lambda;
            (gm, gds)
        }
    };
    let gmbs = -gm * dvth_dvbs; // ∂Ids/∂Vbs = gm · (−∂Vth/∂Vbs)
    let [cgs, cgd, cgb] = meyer_caps(region, p.cox * w * l, p.cgso * w, p.cgbo * l);

    MosEval {
        ids,
        gm,
        gds,
        gmbs,
        cgs,
        cgd,
        cgb,
        region,
    }
}

/// Full device evaluation at terminal voltages `(vg, vd, vs, vb)` relative
/// to ground, handling polarity and source/drain swap.
///
/// Returned quantities follow the *device* convention: `ids` flows from
/// drain to source for NMOS (reversed sign for PMOS handled internally so
/// the MNA stamp can treat `ids` as the current leaving the drain node).
///
/// The second return slot reports whether drain/source were swapped
/// internally (needed to assign Meyer caps to the right physical terminals).
pub fn eval_mosfet(
    p: &MosParams,
    w: f64,
    l: f64,
    vg: f64,
    vd: f64,
    vs: f64,
    vb: f64,
) -> (MosEval, bool) {
    // Map PMOS onto the canonical NMOS equations by mirroring all voltages.
    let sgn = match p.ty {
        MosType::Nmos => 1.0,
        MosType::Pmos => -1.0,
    };
    let (vg, vd, vs, vb) = (sgn * vg, sgn * vd, sgn * vs, sgn * vb);
    // Canonical form requires vds >= 0; swap terminals if needed.
    let swapped = vd < vs;
    let (d, s) = if swapped { (vs, vd) } else { (vd, vs) };
    let vgs = vg - s;
    let vds = d - s;
    let vbs = vb - s;
    let mut ev = eval_canonical(p, w, l, vgs, vds, vbs);
    // Current direction: canonical ids flows d→s; if swapped, the physical
    // drain is the canonical source.
    if swapped {
        ev.ids = -ev.ids;
        std::mem::swap(&mut ev.cgs, &mut ev.cgd);
    }
    // For PMOS the mirrored current reverses once more in physical terms,
    // but because we also mirrored the voltages, `ids` as computed already
    // represents current magnitude in the canonical frame; the stamp uses
    // sign() to restore polarity.
    ev.ids *= sgn;
    (ev, swapped)
}

/// The bias-independent factors of one device, for the Newton stamp:
/// the drain current alone, nine times per device for the
/// finite-difference stencil, and the Meyer capacitances alone, once per
/// transient step. Every value is bit-identical to the matching field of
/// `eval_mosfet(..).0` at the same bias.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdsStencil {
    pub(crate) sgn: f64,
    pub(crate) beta: f64,
    pub(crate) lambda: f64,
    pub(crate) vt0: f64,
    pub(crate) gamma: f64,
    pub(crate) phi: f64,
    pub(crate) sqrt_phi: f64,
    pub(crate) cox_total: f64,
    pub(crate) cov: f64,
    pub(crate) cgb_ov: f64,
}

/// A terminal bias mapped to the canonical frame of [`eval_mosfet`].
#[derive(Debug, Clone, Copy)]
struct CanonicalBias {
    vgs: f64,
    vds: f64,
    /// `vbs` clamped to ≤ 0, as the threshold sees it.
    vbs: f64,
    swapped: bool,
}

impl IdsStencil {
    /// Precomputes the factors of a device of size `w`×`l`.
    #[inline]
    pub(crate) fn new(p: &MosParams, w: f64, l: f64) -> Self {
        let phi = p.phi.max(0.1);
        IdsStencil {
            sgn: match p.ty {
                MosType::Nmos => 1.0,
                MosType::Pmos => -1.0,
            },
            beta: p.kp * w / l,
            lambda: p.lambda * (1e-6 / l),
            vt0: p.vt0.abs(),
            gamma: p.gamma,
            phi,
            sqrt_phi: phi.sqrt(),
            cox_total: p.cox * w * l,
            cov: p.cgso * w,
            cgb_ov: p.cgbo * l,
        }
    }

    /// [`MosParams::vth`] with `phi.sqrt()` precomputed.
    fn vth(&self, vbs: f64) -> f64 {
        let arg = (self.phi - vbs).max(1e-3);
        self.vt0 + self.gamma * (arg.sqrt() - self.sqrt_phi)
    }

    fn bias(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> CanonicalBias {
        let sgn = self.sgn;
        let (vg, vd, vs, vb) = (sgn * vg, sgn * vd, sgn * vs, sgn * vb);
        let swapped = vd < vs;
        let (d, s) = if swapped { (vs, vd) } else { (vd, vs) };
        CanonicalBias {
            vgs: vg - s,
            vds: d - s,
            vbs: (vb - s).min(0.0),
            swapped,
        }
    }

    /// Meyer capacitances `[cgs, cgd, cgb]` at `(vg, vd, vs, vb)`, on the
    /// physical terminals.
    pub(crate) fn caps(&self, vg: f64, vd: f64, vs: f64, vb: f64) -> [f64; 3] {
        let b = self.bias(vg, vd, vs, vb);
        let region = region(b.vgs - self.vth(b.vbs), b.vds);
        let [cgs, cgd, cgb] = meyer_caps(region, self.cox_total, self.cov, self.cgb_ov);
        if b.swapped {
            [cgd, cgs, cgb]
        } else {
            [cgs, cgd, cgb]
        }
    }

    #[cfg(test)]
    fn ids(&self, b: CanonicalBias, vth: f64) -> f64 {
        let ids = channel_current(self.beta, self.lambda, b.vgs - vth, b.vds);
        let ids = if b.swapped { -ids } else { ids };
        ids * self.sgn
    }

    /// Drain current at `(vg, vd, vs, vb)` and its central-difference
    /// partials with step `h`, in terminal order (g, d, s, b). The
    /// scalar reference the device bank's kernel is tested against
    /// (`mna::bank`).
    #[cfg(test)]
    pub(crate) fn eval(&self, vg: f64, vd: f64, vs: f64, vb: f64, h: f64) -> (f64, [f64; 4]) {
        let centre = self.bias(vg, vd, vs, vb);
        let vth0 = self.vth(centre.vbs);
        // Perturbing the gate (or the drain, short of a swap) leaves the
        // body bias, and so the threshold, unchanged.
        let ids = |vg, vd, vs, vb| {
            let b = self.bias(vg, vd, vs, vb);
            let vth = if b.vbs.to_bits() == centre.vbs.to_bits() {
                vth0
            } else {
                self.vth(b.vbs)
            };
            self.ids(b, vth)
        };
        let slope = |plus: f64, minus: f64| (plus - minus) / (2.0 * h);
        (
            self.ids(centre, vth0),
            [
                slope(ids(vg + h, vd, vs, vb), ids(vg - h, vd, vs, vb)),
                slope(ids(vg, vd + h, vs, vb), ids(vg, vd - h, vs, vb)),
                slope(ids(vg, vd, vs + h, vb), ids(vg, vd, vs - h, vb)),
                slope(ids(vg, vd, vs, vb + h), ids(vg, vd, vs, vb - h)),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_with_body_effect_increases() {
        let p = MosParams::nmos_018();
        let v0 = p.vth(0.0);
        let v1 = p.vth(-1.0);
        assert!((v0 - 0.45).abs() < 1e-12);
        assert!(v1 > v0, "reverse body bias raises vth");
    }

    #[test]
    fn cutoff_region_has_no_current() {
        let p = MosParams::nmos_018();
        let (ev, _) = eval_mosfet(&p, 10e-6, 1e-6, 0.2, 1.0, 0.0, 0.0);
        assert_eq!(ev.region, MosRegion::Cutoff);
        assert_eq!(ev.ids, 0.0);
        assert_eq!(ev.gm, 0.0);
    }

    #[test]
    fn saturation_current_matches_hand_calculation() {
        let p = MosParams::nmos_018();
        let (w, l) = (10e-6, 1e-6);
        let (vgs, vds) = (1.0, 1.5);
        let (ev, swapped) = eval_mosfet(&p, w, l, vgs, vds, 0.0, 0.0);
        assert!(!swapped);
        assert_eq!(ev.region, MosRegion::Saturation);
        let beta = p.kp * w / l;
        let vgst: f64 = vgs - 0.45;
        let expect = 0.5 * beta * vgst * vgst * (1.0 + p.lambda * vds);
        assert!((ev.ids - expect).abs() / expect < 1e-12);
        assert!((ev.gm - beta * vgst * (1.0 + p.lambda * vds)).abs() < 1e-12);
    }

    #[test]
    fn triode_region_and_continuity_at_vdsat() {
        let p = MosParams::nmos_018();
        let (w, l) = (10e-6, 1e-6);
        let vgst = 0.55; // vgs = 1.0
        let below = eval_mosfet(&p, w, l, 1.0, vgst - 1e-9, 0.0, 0.0).0;
        let above = eval_mosfet(&p, w, l, 1.0, vgst + 1e-9, 0.0, 0.0).0;
        assert_eq!(below.region, MosRegion::Triode);
        assert_eq!(above.region, MosRegion::Saturation);
        assert!(
            (below.ids - above.ids).abs() < 1e-9,
            "Ids continuous at vdsat"
        );
    }

    #[test]
    fn source_drain_swap_reverses_current() {
        let p = MosParams::nmos_018();
        // Symmetric device: bias reversed → current reversed.
        let (fwd, sw_f) = eval_mosfet(&p, 10e-6, 1e-6, 1.2, 0.6, 0.0, 0.0);
        let (rev, sw_r) = eval_mosfet(&p, 10e-6, 1e-6, 1.2 + 0.6, 0.0 + 0.6, 0.6 + 0.6, 0.6);
        assert!(!sw_f);
        assert!(sw_r);
        // Same |vgs| w.r.t. the conducting source, opposite direction.
        assert!(rev.ids < 0.0);
        assert!((fwd.ids + rev.ids).abs() / fwd.ids < 1e-9);
    }

    #[test]
    fn pmos_conducts_with_negative_vgs() {
        let p = MosParams::pmos_018();
        // Source at 1.8 V, gate at 0.8 V → |vgs| = 1.0 > |vt0|.
        let (ev, _) = eval_mosfet(&p, 10e-6, 1e-6, 0.8, 0.2, 1.8, 1.8);
        assert_eq!(ev.region, MosRegion::Saturation);
        // PMOS: current flows source→drain; in stamp convention ids < 0.
        assert!(ev.ids < 0.0);
        assert!(ev.gm > 0.0);
    }

    #[test]
    fn lv_devices_have_lower_threshold() {
        let n = MosParams::nmos_018();
        let nlv = MosParams::nmos_lv_018();
        assert!(nlv.vt0 < n.vt0);
        let (hi, _) = eval_mosfet(&nlv, 10e-6, 1e-6, 0.4, 1.0, 0.0, 0.0);
        let (lo, _) = eval_mosfet(&n, 10e-6, 1e-6, 0.4, 1.0, 0.0, 0.0);
        assert!(hi.ids > 0.0);
        assert_eq!(lo.ids, 0.0, "standard-Vt still off at vgs=0.4");
    }

    #[test]
    fn meyer_caps_partition_by_region() {
        let p = MosParams::nmos_018();
        let (w, l) = (10e-6, 1e-6);
        let cox_total = p.cox * w * l;
        let sat = eval_mosfet(&p, w, l, 1.0, 1.5, 0.0, 0.0).0;
        assert!((sat.cgs - (2.0 / 3.0) * cox_total - p.cgso * w).abs() < 1e-18);
        assert!((sat.cgd - p.cgso * w).abs() < 1e-18);
        let off = eval_mosfet(&p, w, l, 0.0, 1.5, 0.0, 0.0).0;
        assert!(off.cgb > sat.cgb, "gate-bulk cap dominates in cutoff");
    }

    #[test]
    fn ids_stencil_is_bit_identical_to_full_evaluation() {
        let h = 1e-6;
        let grid = [-0.9, -0.3, -1e-6, 0.0, 1e-6, 0.2, 0.45, 0.7, 1.1, 1.8];
        let devices = [
            (MosParams::nmos_018(), 10e-6, 1e-6),
            (MosParams::pmos_018(), 20e-6, 0.5e-6),
            (MosParams::nmos_lv_018(), 2e-6, 0.18e-6),
            (MosParams::pmos_lv_018(), 5e-6, 2e-6),
        ];
        let mut regions = [0usize; 3];
        let mut swaps = 0;
        let mut forward_body = 0;
        for (p, w, l) in &devices {
            let st = IdsStencil::new(p, *w, *l);
            let ids = |vg, vd, vs, vb| eval_mosfet(p, *w, *l, vg, vd, vs, vb).0.ids;
            for &vg in &grid {
                for &vd in &grid {
                    for &vs in &grid {
                        for &vb in &[-0.5, 0.0, 0.3, 1.8] {
                            let (ev, swapped) = eval_mosfet(p, *w, *l, vg, vd, vs, vb);
                            regions[ev.region as usize] += 1;
                            swaps += usize::from(swapped);
                            let s = if swapped { vd } else { vs };
                            let sgn = if p.ty == MosType::Nmos { 1.0 } else { -1.0 };
                            forward_body += usize::from(sgn * (vb - s) > 0.0);
                            let (i0, g) = st.eval(vg, vd, vs, vb, h);
                            let fd = |a: f64, b: f64| (a - b) / (2.0 * h);
                            let expect = [
                                fd(ids(vg + h, vd, vs, vb), ids(vg - h, vd, vs, vb)),
                                fd(ids(vg, vd + h, vs, vb), ids(vg, vd - h, vs, vb)),
                                fd(ids(vg, vd, vs + h, vb), ids(vg, vd, vs - h, vb)),
                                fd(ids(vg, vd, vs, vb + h), ids(vg, vd, vs, vb - h)),
                            ];
                            let at = (vg, vd, vs, vb);
                            assert_eq!(i0.to_bits(), ev.ids.to_bits(), "{:?} at {at:?}", p.ty);
                            let caps = st.caps(vg, vd, vs, vb);
                            for (k, (a, b)) in caps.iter().zip([ev.cgs, ev.cgd, ev.cgb]).enumerate()
                            {
                                assert_eq!(a.to_bits(), b.to_bits(), "cap {k} at {at:?}");
                            }
                            for (k, (a, b)) in g.iter().zip(&expect).enumerate() {
                                assert_eq!(a.to_bits(), b.to_bits(), "partial {k} at {at:?}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            regions.iter().all(|&c| c > 100),
            "regions covered: {regions:?}"
        );
        assert!(
            swaps > 100 && forward_body > 100,
            "{swaps} swaps, {forward_body} vbs > 0"
        );
    }

    #[test]
    fn gmbs_is_zero_without_body_bias_and_positive_with() {
        let p = MosParams::nmos_018();
        let at0 = eval_mosfet(&p, 10e-6, 1e-6, 1.0, 1.5, 0.0, 0.0).0;
        assert_eq!(at0.gmbs, 0.0);
        let biased = eval_mosfet(&p, 10e-6, 1e-6, 1.0, 1.5, 0.0, -0.5).0;
        assert!(biased.gmbs > 0.0);
    }
}
