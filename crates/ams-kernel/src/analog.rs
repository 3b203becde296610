//! Continuous-time analog models.
//!
//! A model is a system of residual equations `F(t, x, ẋ, u) = 0` over a
//! state vector `x` with external inputs `u`. The residual (DAE) form covers
//! both differential branches (`vo'Dot == K * vin` becomes
//! `r = K*u - ẋ`) and algebraic branches (`vo == 0.0` becomes `r = x`),
//! which is exactly the structure of VHDL-AMS `if … use` simultaneous
//! statements the paper's listings rely on.

/// A continuous-time model in residual form.
///
/// # Examples
///
/// The paper's Phase II "ideal integrator with gate":
/// `if sel='1' use vo'Dot == vin*K; else vo == 0.0; end use;`
///
/// ```
/// use ams_kernel::analog::AnalogModel;
///
/// struct GatedIntegrator {
///     k: f64,
/// }
///
/// impl AnalogModel for GatedIntegrator {
///     fn dim(&self) -> usize { 1 }
///     // u[0] = vin, u[1] = sel (0.0 / 1.0)
///     fn residual(&self, _t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]) {
///         if u[1] > 0.5 {
///             r[0] = self.k * u[0] - xdot[0]; // vo' = K*vin
///         } else {
///             r[0] = x[0]; // vo = 0
///         }
///     }
/// }
/// ```
pub trait AnalogModel {
    /// Number of state variables (equations).
    fn dim(&self) -> usize;

    /// Evaluates the residuals `r[i] = F_i(t, x, ẋ, u)`.
    ///
    /// All slices have well-defined lengths: `x`, `xdot` and `r` have
    /// `self.dim()` entries; `u` has whatever length the caller feeds (the
    /// model defines the convention).
    fn residual(&self, t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]);

    /// Initial state; zeros by default.
    fn initial_state(&self) -> Vec<f64> {
        vec![0.0; self.dim()]
    }
}

/// A gated linear two-pole model — the paper's Phase IV behavioural
/// integrator listing, generalised:
///
/// ```text
/// if sel='1' use
///   vin  - (1/ω1)·vo_q' - vo_q == 0
///   A·vo_q - (1/ω2)·vo'  - vo == 0
/// else vo_q == 0; vo == 0; end use;
/// ```
///
/// States: `x[0] = vo_q` (internal), `x[1] = vo` (output).
/// Inputs: `u[0] = vin`, `u[1] = sel` (gate), `u[2] = hold` (freeze output).
///
/// With `hold` asserted the derivative terms are forced to zero, modelling
/// the hold interval between integration and dump (an I&D-specific
/// extension that keeps the three-phase integrate/hold/dump cycle in one
/// model).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPoleGatedModel {
    /// Mid-band gain `A` (linear, not dB).
    pub gain: f64,
    /// First pole angular frequency `ω1 = 2π·f1` (rad/s).
    pub omega1: f64,
    /// Second pole angular frequency `ω2 = 2π·f2` (rad/s).
    pub omega2: f64,
    /// Optional symmetric input clipping (linear-range limit), in volts.
    /// `None` models the pure linear transfer function.
    pub input_clip: Option<f64>,
}

impl TwoPoleGatedModel {
    /// Builds the model from pole *frequencies* in hertz and mid-band gain
    /// in decibels — the way the paper quotes them (21.8 dB, 0.8 MHz,
    /// 5.9 GHz).
    pub fn from_db_and_hz(gain_db: f64, f1_hz: f64, f2_hz: f64) -> Self {
        TwoPoleGatedModel {
            gain: 10f64.powf(gain_db / 20.0),
            omega1: 2.0 * std::f64::consts::PI * f1_hz,
            omega2: 2.0 * std::f64::consts::PI * f2_hz,
            input_clip: None,
        }
    }

    /// Adds a symmetric input linear-range clip of `±v` volts.
    pub fn with_input_clip(mut self, v: f64) -> Self {
        self.input_clip = Some(v);
        self
    }
}

impl AnalogModel for TwoPoleGatedModel {
    fn dim(&self) -> usize {
        2
    }

    fn residual(&self, _t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]) {
        let sel = u.get(1).copied().unwrap_or(1.0) > 0.5;
        let hold = u.get(2).copied().unwrap_or(0.0) > 0.5;
        if hold {
            // Freeze both states.
            r[0] = xdot[0];
            r[1] = xdot[1];
        } else if sel {
            let mut vin = u[0];
            if let Some(clip) = self.input_clip {
                vin = vin.clamp(-clip, clip);
            }
            r[0] = vin - xdot[0] / self.omega1 - x[0];
            r[1] = self.gain * x[0] - xdot[1] / self.omega2 - x[1];
        } else {
            r[0] = x[0];
            r[1] = x[1];
        }
    }
}

/// The ideal gated integrator of the paper's Phase II listing:
/// `if sel='1' use vo'Dot == vin*K; else vo == 0.0; end use;`
/// plus a hold input mirroring [`TwoPoleGatedModel`].
///
/// State: `x[0] = vo`. Inputs: `u[0] = vin`, `u[1] = sel`, `u[2] = hold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealGatedIntegrator {
    /// Integration constant `K` (1/s).
    pub k: f64,
}

impl IdealGatedIntegrator {
    /// An integrator with gain constant `k` (in 1/seconds).
    pub fn new(k: f64) -> Self {
        IdealGatedIntegrator { k }
    }
}

impl AnalogModel for IdealGatedIntegrator {
    fn dim(&self) -> usize {
        1
    }

    fn residual(&self, _t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]) {
        let sel = u.get(1).copied().unwrap_or(1.0) > 0.5;
        let hold = u.get(2).copied().unwrap_or(0.0) > 0.5;
        if hold {
            r[0] = xdot[0];
        } else if sel {
            r[0] = self.k * u[0] - xdot[0];
        } else {
            r[0] = x[0];
        }
    }
}

/// A single-pole RC low-pass (`τ·ẏ + y = u`), useful as a bandwidth-limit
/// building block and as a solver test vehicle with a closed-form solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstOrderLag {
    /// Time constant τ in seconds.
    pub tau: f64,
    /// DC gain.
    pub gain: f64,
}

impl AnalogModel for FirstOrderLag {
    fn dim(&self) -> usize {
        1
    }

    fn residual(&self, _t: f64, x: &[f64], xdot: &[f64], u: &[f64], r: &mut [f64]) {
        r[0] = self.gain * u[0] - x[0] - self.tau * xdot[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_integrator_residual_branches() {
        let m = IdealGatedIntegrator::new(1e9);
        let mut r = [0.0];
        // Integrating: residual zero when xdot == k*vin.
        m.residual(0.0, &[0.3], &[2e8], &[0.2, 1.0, 0.0], &mut r);
        assert!(r[0].abs() < 1e-9);
        // Dumping: residual equals the state.
        m.residual(0.0, &[0.3], &[0.0], &[0.2, 0.0, 0.0], &mut r);
        assert!((r[0] - 0.3).abs() < 1e-12);
        // Holding: residual equals the derivative.
        m.residual(0.0, &[0.3], &[5.0], &[0.2, 1.0, 1.0], &mut r);
        assert!((r[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn two_pole_dc_residual_matches_gain() {
        // At DC equilibrium (ẋ = 0): x0 = vin, x1 = A·x0.
        let m = TwoPoleGatedModel::from_db_and_hz(21.8, 0.8e6, 5.9e9);
        let a = 10f64.powf(21.8 / 20.0);
        let vin = 0.05;
        let x = [vin, a * vin];
        let mut r = [0.0, 0.0];
        m.residual(0.0, &x, &[0.0, 0.0], &[vin, 1.0, 0.0], &mut r);
        assert!(r[0].abs() < 1e-12);
        assert!(r[1].abs() < 1e-9);
    }

    #[test]
    fn two_pole_input_clip_limits_drive() {
        let m = TwoPoleGatedModel::from_db_and_hz(20.0, 1e6, 1e9).with_input_clip(0.05);
        let mut r_clipped = [0.0, 0.0];
        let mut r_at_limit = [0.0, 0.0];
        m.residual(
            0.0,
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[1.0, 1.0, 0.0],
            &mut r_clipped,
        );
        m.residual(
            0.0,
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.05, 1.0, 0.0],
            &mut r_at_limit,
        );
        assert_eq!(
            r_clipped, r_at_limit,
            "inputs beyond the clip must saturate"
        );
    }

    #[test]
    fn default_initial_state_is_zero() {
        let m = TwoPoleGatedModel::from_db_and_hz(21.8, 0.8e6, 5.9e9);
        assert_eq!(m.initial_state(), vec![0.0, 0.0]);
    }
}
