//! Circuit description: nodes, elements and sources.

use crate::error::SpiceError;
use crate::mosfet::MosParams;
use std::collections::HashMap;
use std::sync::Arc;

/// A circuit node. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Time-dependent source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// SPICE PULSE(v1 v2 delay rise fall width period).
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge, s.
        delay: f64,
        /// Rise time, s.
        rise: f64,
        /// Fall time, s.
        fall: f64,
        /// Pulse width, s.
        width: f64,
        /// Repetition period, s (0 disables repetition).
        period: f64,
    },
    /// SPICE SIN(offset amplitude freq delay damping).
    Sin {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency, Hz.
        freq: f64,
        /// Start delay, s.
        delay: f64,
        /// Damping factor, 1/s.
        theta: f64,
    },
    /// Piecewise-linear (time, value) points; held flat outside the span.
    Pwl(Vec<(f64, f64)>),
    /// Externally driven (co-simulation): the value is set through
    /// [`Circuit::external_vsource`] slots and the transient simulator's
    /// `set_external`.
    External {
        /// Slot index into the external-input table.
        slot: usize,
    },
}

impl SourceWave {
    /// Evaluates the waveform at time `t` given the external-input table.
    pub fn value_at(&self, t: f64, externals: &[f64]) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let mut tl = t - delay;
                if *period > 0.0 {
                    tl %= period;
                }
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                if tl < rise {
                    v1 + (v2 - v1) * tl / rise
                } else if tl < rise + width {
                    *v2
                } else if tl < rise + width + fall {
                    v2 + (v1 - v2) * (tl - rise - width) / fall
                } else {
                    *v1
                }
            }
            SourceWave::Sin {
                offset,
                ampl,
                freq,
                delay,
                theta,
            } => {
                if t < *delay {
                    *offset
                } else {
                    let tl = t - delay;
                    offset
                        + ampl
                            * (-theta * tl).exp()
                            * (2.0 * std::f64::consts::PI * freq * tl).sin()
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points.last().expect("non-empty");
                if t >= last.0 {
                    return last.1;
                }
                let idx = points.partition_point(|&(pt, _)| pt <= t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
            SourceWave::External { slot } => externals.get(*slot).copied().unwrap_or(0.0),
        }
    }

    /// DC value used for the operating point (waveform at `t = 0`).
    pub fn dc_value(&self, externals: &[f64]) -> f64 {
        self.value_at(0.0, externals)
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor.
    Resistor {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Resistance, Ω.
        r: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Capacitance, F.
        c: f64,
        /// Optional initial voltage for transient, V.
        ic: Option<f64>,
    },
    /// Independent voltage source (adds an MNA branch current).
    Vsource {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Large-signal waveform.
        wave: SourceWave,
        /// AC magnitude for small-signal analysis.
        ac_mag: f64,
    },
    /// Independent current source (current flows p → n through the source).
    Isource {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Large-signal waveform.
        wave: SourceWave,
        /// AC magnitude for small-signal analysis.
        ac_mag: f64,
    },
    /// Voltage-controlled voltage source `V(p,n) = gain · V(cp,cn)`.
    Vcvs {
        /// Positive output node.
        p: NodeId,
        /// Negative output node.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source `I(p→n) = gm · V(cp,cn)`.
    Vccs {
        /// Current exits here.
        p: NodeId,
        /// Current returns here.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Transconductance, S.
        gm: f64,
    },
    /// Voltage-controlled switch: smooth conductance transition between
    /// `roff` and `ron` as `V(cp,cn)` crosses `vt` (width `vs`).
    Switch {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// On resistance, Ω.
        ron: f64,
        /// Off resistance, Ω.
        roff: f64,
        /// Switching threshold, V.
        vt: f64,
        /// Transition smoothness, V.
        vs: f64,
    },
    /// Junction diode: `I = Is·(exp(V/(n·Vt)) − 1)` with linear
    /// extrapolation above the limiting voltage (numerical safety).
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
        /// Saturation current, A.
        is: f64,
        /// Emission coefficient n.
        nf: f64,
    },
    /// Linear inductor (adds an MNA branch current).
    Inductor {
        /// Positive node.
        p: NodeId,
        /// Negative node.
        n: NodeId,
        /// Inductance, H.
        l: f64,
    },
    /// Current-controlled current source `I(p→n) = gain · i(ctrl)`, where
    /// `ctrl` is the element index of the controlling voltage source
    /// (which contributes the branch current being sensed).
    Cccs {
        /// Current exits here.
        p: NodeId,
        /// Current returns here.
        n: NodeId,
        /// Element index of the controlling voltage source.
        ctrl: usize,
        /// Current gain.
        gain: f64,
    },
    /// Current-controlled voltage source `V(p,n) = rm · i(ctrl)` (adds an
    /// MNA branch current of its own).
    Ccvs {
        /// Positive output node.
        p: NodeId,
        /// Negative output node.
        n: NodeId,
        /// Element index of the controlling voltage source.
        ctrl: usize,
        /// Transresistance, Ω.
        rm: f64,
    },
    /// MOSFET (level-1), four-terminal.
    Mosfet {
        /// Drain.
        d: NodeId,
        /// Gate.
        g: NodeId,
        /// Source.
        s: NodeId,
        /// Bulk.
        b: NodeId,
        /// Model index into [`Circuit::models`].
        model: usize,
        /// Channel width, m.
        w: f64,
        /// Channel length, m.
        l: f64,
    },
}

/// A complete circuit: named nodes, models and elements.
///
/// The names live apart from the element values, behind an [`Arc`] that
/// clones share: a clone copies the element values and bumps one count,
/// and only adding a node or an element to it copies the names (copy on
/// write). So a Monte-Carlo sample that clones a template and scales
/// element magnitudes pays for the values alone.
///
/// # Examples
///
/// ```
/// use spice::circuit::{Circuit, SourceWave};
///
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.vsource("V1", vin, Circuit::gnd(), SourceWave::Dc(1.0));
/// ckt.resistor("R1", vin, vout, 1e3);
/// ckt.resistor("R2", vout, Circuit::gnd(), 1e3);
/// assert_eq!(ckt.num_nodes(), 3); // ground + 2
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Arc<Names>,
    elements: Vec<Element>,
    /// MOS model table.
    pub models: Vec<(String, MosParams)>,
    /// Number of external-input slots declared (co-simulation).
    pub num_externals: usize,
}

/// The naming of a [`Circuit`]: node names, element names (by element
/// index) and the lookups from lower-case name to id.
#[derive(Debug, Clone, Default)]
struct Names {
    nodes: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    elements: Vec<String>,
    element_lookup: HashMap<String, usize>,
}

impl Circuit {
    /// Creates a circuit containing only the ground node.
    pub fn new() -> Self {
        let mut names = Names {
            nodes: vec!["0".to_string()],
            ..Names::default()
        };
        names.node_lookup.insert("0".into(), NodeId(0));
        names.node_lookup.insert("gnd".into(), NodeId(0));
        Circuit {
            names: Arc::new(names),
            elements: Vec::new(),
            models: Vec::new(),
            num_externals: 0,
        }
    }

    /// The ground node.
    pub fn gnd() -> NodeId {
        NodeId::GROUND
    }

    /// Returns the node with this name, creating it if needed.
    /// Names are case-insensitive; `"0"` and `"gnd"` are ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.names.node_lookup.get(&key) {
            return id;
        }
        let names = Arc::make_mut(&mut self.names);
        let id = NodeId(names.nodes.len());
        names.nodes.push(key.clone());
        names.node_lookup.insert(key, id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.names
            .node_lookup
            .get(&name.to_ascii_lowercase())
            .copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names.nodes[id.0]
    }

    /// Total node count including ground.
    pub fn num_nodes(&self) -> usize {
        self.names.nodes.len()
    }

    /// Iterates every node as `(id, name)`, ground first.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &str)> + '_ {
        self.names
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i), n.as_str()))
    }

    /// All elements with their names, in element order.
    pub fn elements(
        &self,
    ) -> impl ExactSizeIterator<Item = (&str, &Element)> + DoubleEndedIterator + Clone + '_ {
        self.names
            .elements
            .iter()
            .map(String::as_str)
            .zip(&self.elements)
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Element `idx` (the index [`find_element`](Self::find_element)
    /// returns).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn element(&self, idx: usize) -> &Element {
        &self.elements[idx]
    }

    /// Element `idx`, writable (tests that build off-topology variants).
    #[cfg(test)]
    pub(crate) fn element_mut(&mut self, idx: usize) -> &mut Element {
        &mut self.elements[idx]
    }

    /// Name of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn element_name(&self, idx: usize) -> &str {
        &self.names.elements[idx]
    }

    /// Registers a MOS model; returns its index.
    pub fn add_model(&mut self, name: &str, params: MosParams) -> usize {
        self.models.push((name.to_ascii_lowercase(), params));
        self.models.len() - 1
    }

    /// Finds a model index by name.
    pub fn find_model(&self, name: &str) -> Option<usize> {
        let key = name.to_ascii_lowercase();
        self.models.iter().position(|(n, _)| *n == key)
    }

    pub(crate) fn push(&mut self, name: &str, e: Element) {
        let key = name.to_ascii_lowercase();
        let names = Arc::make_mut(&mut self.names);
        names
            .element_lookup
            .insert(key.clone(), self.elements.len());
        names.elements.push(key);
        self.elements.push(e);
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite.
    pub fn resistor(&mut self, name: &str, p: NodeId, n: NodeId, r: f64) {
        assert!(r.is_finite() && r > 0.0, "resistance must be positive");
        self.push(name, Element::Resistor { p, n, r });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive and finite.
    pub fn capacitor(&mut self, name: &str, p: NodeId, n: NodeId, c: f64) {
        assert!(c.is_finite() && c > 0.0, "capacitance must be positive");
        self.push(name, Element::Capacitor { p, n, c, ic: None });
    }

    /// Adds a capacitor with an initial-condition voltage (applied at the
    /// start of transient analysis; only honoured when `n` is ground).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive and finite.
    pub fn capacitor_ic(&mut self, name: &str, p: NodeId, n: NodeId, c: f64, ic: f64) {
        assert!(c.is_finite() && c > 0.0, "capacitance must be positive");
        self.push(
            name,
            Element::Capacitor {
                p,
                n,
                c,
                ic: Some(ic),
            },
        );
    }

    /// Adds an independent voltage source.
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) {
        self.push(
            name,
            Element::Vsource {
                p,
                n,
                wave,
                ac_mag: 0.0,
            },
        );
    }

    /// Adds a voltage source that also carries an AC stimulus of `ac_mag`.
    pub fn vsource_ac(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave, ac_mag: f64) {
        self.push(name, Element::Vsource { p, n, wave, ac_mag });
    }

    /// Adds an independent current source (current p → n).
    pub fn isource(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) {
        self.push(
            name,
            Element::Isource {
                p,
                n,
                wave,
                ac_mag: 0.0,
            },
        );
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(&mut self, name: &str, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gain: f64) {
        self.push(name, Element::Vcvs { p, n, cp, cn, gain });
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(&mut self, name: &str, p: NodeId, n: NodeId, cp: NodeId, cn: NodeId, gm: f64) {
        self.push(name, Element::Vccs { p, n, cp, cn, gm });
    }

    /// Resolves the controlling voltage source for an F/H card: it must
    /// already exist (forward references are resolved by the deck
    /// elaborator, which appends F/H elements last).
    fn ctrl_vsource(&self, name: &str, ctrl: &str) -> Result<usize, SpiceError> {
        let idx = self
            .find_element(ctrl)
            .ok_or_else(|| SpiceError::UnknownName { name: ctrl.into() })?;
        if !matches!(self.elements[idx], Element::Vsource { .. }) {
            return Err(SpiceError::InvalidParameter {
                element: name.to_ascii_lowercase(),
                message: format!("controlling element '{ctrl}' is not a voltage source"),
            });
        }
        Ok(idx)
    }

    /// Adds a current-controlled current source sensing the branch current
    /// of the voltage source named `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownName`] when `ctrl` does not exist yet, or
    /// [`SpiceError::InvalidParameter`] when it is not a voltage source.
    pub fn cccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ctrl: &str,
        gain: f64,
    ) -> Result<(), SpiceError> {
        let ctrl = self.ctrl_vsource(name, ctrl)?;
        self.push(name, Element::Cccs { p, n, ctrl, gain });
        Ok(())
    }

    /// Adds a current-controlled voltage source sensing the branch current
    /// of the voltage source named `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownName`] when `ctrl` does not exist yet, or
    /// [`SpiceError::InvalidParameter`] when it is not a voltage source.
    pub fn ccvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        ctrl: &str,
        rm: f64,
    ) -> Result<(), SpiceError> {
        let ctrl = self.ctrl_vsource(name, ctrl)?;
        self.push(name, Element::Ccvs { p, n, ctrl, rm });
        Ok(())
    }

    /// Re-points an independent V or I source at a fixed DC value — the
    /// `.DC` sweep hot path: the topology, node ids and MNA layout are
    /// untouched, so symbolic factorizations stay valid across sweep
    /// points.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownName`] when no element has this name, or
    /// [`SpiceError::InvalidParameter`] when it is not an independent
    /// source.
    pub fn set_dc_value(&mut self, name: &str, v: f64) -> Result<(), SpiceError> {
        let idx = self
            .find_element(name)
            .ok_or_else(|| SpiceError::UnknownName { name: name.into() })?;
        match &mut self.elements[idx] {
            Element::Vsource { wave, .. } | Element::Isource { wave, .. } => {
                *wave = SourceWave::Dc(v);
                Ok(())
            }
            _ => Err(SpiceError::InvalidParameter {
                element: name.to_ascii_lowercase(),
                message: "only independent V/I sources can be swept".into(),
            }),
        }
    }

    /// Adds a smooth voltage-controlled switch.
    #[allow(clippy::too_many_arguments)]
    pub fn switch(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        ron: f64,
        roff: f64,
        vt: f64,
    ) {
        self.push(
            name,
            Element::Switch {
                p,
                n,
                cp,
                cn,
                ron,
                roff,
                vt,
                vs: 0.1,
            },
        );
    }

    /// Adds a junction diode (anode `p`, cathode `n`).
    ///
    /// # Panics
    ///
    /// Panics unless `is > 0` and `nf > 0`.
    pub fn diode(&mut self, name: &str, p: NodeId, n: NodeId, is: f64, nf: f64) {
        assert!(
            is > 0.0 && is.is_finite(),
            "saturation current must be positive"
        );
        assert!(
            nf > 0.0 && nf.is_finite(),
            "emission coefficient must be positive"
        );
        self.push(name, Element::Diode { p, n, is, nf });
    }

    /// Adds an inductor.
    ///
    /// # Panics
    ///
    /// Panics unless `l` is positive and finite.
    pub fn inductor(&mut self, name: &str, p: NodeId, n: NodeId, l: f64) {
        assert!(l.is_finite() && l > 0.0, "inductance must be positive");
        self.push(name, Element::Inductor { p, n, l });
    }

    /// Adds a MOSFET referencing a registered model by name.
    ///
    /// Geometry is deliberately *not* validated here: the static ERC
    /// layer (lint `E0107`) reports non-physical W/L on a constructed
    /// circuit, which requires such devices to be representable.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownModel`] if the model was never added.
    #[allow(clippy::too_many_arguments)]
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: &str,
        w: f64,
        l: f64,
    ) -> Result<(), SpiceError> {
        let model = self
            .find_model(model)
            .ok_or_else(|| SpiceError::UnknownModel { name: model.into() })?;
        self.push(
            name,
            Element::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l,
            },
        );
        Ok(())
    }

    /// Declares an externally-driven voltage source (for co-simulation) and
    /// returns its external slot index.
    pub fn external_vsource(&mut self, name: &str, p: NodeId, n: NodeId) -> usize {
        let slot = self.num_externals;
        self.num_externals += 1;
        self.push(
            name,
            Element::Vsource {
                p,
                n,
                wave: SourceWave::External { slot },
                ac_mag: 0.0,
            },
        );
        slot
    }

    /// Looks up an element index by name.
    pub fn find_element(&self, name: &str) -> Option<usize> {
        self.names
            .element_lookup
            .get(&name.to_ascii_lowercase())
            .copied()
    }

    /// Scales the defining magnitude of element `idx` in place: `W` for
    /// a MOSFET, `C` for a capacitor, `R` for a resistor, `L` for an
    /// inductor, `IS` for a diode. This is the Monte-Carlo mismatch hot
    /// path: clone a nominal template circuit and jitter device
    /// magnitudes per point instead of rebuilding the netlist — the
    /// topology, node ids and stamp order are untouched, so MNA layouts
    /// and locked stamp structures stay valid across points.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] when `idx` is out of range, the
    /// element kind has no scalable magnitude (sources, controlled
    /// sources, switches), or the scaled value is not positive and
    /// finite.
    pub fn scale_element(&mut self, idx: usize, k: f64) -> Result<(), SpiceError> {
        let err = |element: String, message: &str| SpiceError::InvalidParameter {
            element,
            message: message.into(),
        };
        let Some(e) = self.elements.get_mut(idx) else {
            return Err(err(format!("#{idx}"), "no such element"));
        };
        let name = || self.names.elements[idx].clone();
        let target: &mut f64 = match e {
            Element::Resistor { r, .. } => r,
            Element::Capacitor { c, .. } => c,
            Element::Inductor { l, .. } => l,
            Element::Mosfet { w, .. } => w,
            Element::Diode { is, .. } => is,
            _ => return Err(err(name(), "element kind has no scalable magnitude")),
        };
        let scaled = *target * k;
        if !(scaled.is_finite() && scaled > 0.0) {
            return Err(err(name(), "scaled magnitude must be positive and finite"));
        }
        *target = scaled;
        Ok(())
    }

    /// Count of MOSFETs (the paper quotes its I&D cell as 31 transistors).
    pub fn transistor_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Mosfet { .. }))
            .count()
    }

    /// True when no element's stamp depends on the solution vector —
    /// Newton then converges in a single solve and the transient fast
    /// path can reuse one LU factorization across every step.
    pub fn is_linear(&self) -> bool {
        self.elements.iter().all(|e| {
            !matches!(
                e,
                Element::Mosfet { .. } | Element::Diode { .. } | Element::Switch { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("GND"), NodeId::GROUND);
    }

    #[test]
    fn node_creation_is_idempotent_and_case_insensitive() {
        let mut c = Circuit::new();
        let a = c.node("OutP");
        let b = c.node("outp");
        assert_eq!(a, b);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.node_name(a), "outp");
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.8,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 5e-9,
            period: 10e-9,
        };
        assert_eq!(w.value_at(0.0, &[]), 0.0);
        assert_eq!(w.value_at(2e-9, &[]), 1.8);
        assert!((w.value_at(1.05e-9, &[]) - 0.9).abs() < 1e-9, "mid-rise");
        // Repeats with period 10 ns.
        assert_eq!(w.value_at(12e-9, &[]), 1.8);
        assert_eq!(w.value_at(9.5e-9, &[]), 0.0);
    }

    #[test]
    fn sin_and_pwl_waveforms() {
        let s = SourceWave::Sin {
            offset: 0.9,
            ampl: 0.1,
            freq: 1e6,
            delay: 0.0,
            theta: 0.0,
        };
        assert!((s.value_at(0.25e-6, &[]) - 1.0).abs() < 1e-12);
        let p = SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)]);
        assert_eq!(p.value_at(0.5e-9, &[]), 0.5);
        assert_eq!(p.value_at(5e-9, &[]), 0.5);
        assert_eq!(p.value_at(-1.0, &[]), 0.0);
    }

    #[test]
    fn external_slot_reads_table() {
        let w = SourceWave::External { slot: 1 };
        assert_eq!(w.value_at(0.0, &[0.3, 0.7]), 0.7);
        assert_eq!(w.value_at(0.0, &[]), 0.0, "missing slot defaults to 0");
    }

    #[test]
    fn mosfet_requires_model() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let err = c
            .mosfet(
                "M1",
                d,
                d,
                NodeId::GROUND,
                NodeId::GROUND,
                "nope",
                1e-6,
                1e-6,
            )
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownModel { .. }));
        c.add_model("nch", crate::mosfet::MosParams::nmos_018());
        c.mosfet(
            "M1",
            d,
            d,
            NodeId::GROUND,
            NodeId::GROUND,
            "NCH",
            1e-6,
            1e-6,
        )
        .unwrap();
        assert_eq!(c.transistor_count(), 1);
    }

    #[test]
    fn external_vsource_allocates_slots() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let s0 = c.external_vsource("Vx", a, NodeId::GROUND);
        let s1 = c.external_vsource("Vy", a, NodeId::GROUND);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(c.num_externals, 2);
    }

    #[test]
    fn element_lookup_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, NodeId::GROUND, 100.0);
        assert_eq!(c.find_element("r1"), Some(0));
        assert_eq!(c.find_element("R2"), None);
    }

    /// A clone shares the original's names until one of them adds a node
    /// or an element: then only that circuit's names and lookups change,
    /// and both answer every lookup for what each holds.
    #[test]
    fn clones_copy_their_names_on_write() {
        let mut original = Circuit::new();
        let a = original.node("a");
        original.resistor("R1", a, NodeId::GROUND, 100.0);
        original.capacitor("C1", a, NodeId::GROUND, 1e-12);
        let mut clone = original.clone();
        assert!(Arc::ptr_eq(&original.names, &clone.names));
        clone.scale_element(0, 2.0).unwrap();
        assert_eq!(clone.node("A"), a, "an existing node is a lookup");
        assert!(Arc::ptr_eq(&original.names, &clone.names));

        let b = clone.node("b");
        clone.resistor("R2", a, b, 1e3);
        assert!(!Arc::ptr_eq(&original.names, &clone.names));
        assert_eq!(original.num_nodes(), 2);
        assert_eq!(original.num_elements(), 2);
        assert_eq!(original.find_node("b"), None);
        assert_eq!(original.find_element("r2"), None);
        assert_eq!(clone.num_nodes(), 3);
        assert_eq!(clone.find_element("r2"), Some(2));
        for c in [&original, &clone] {
            for (id, name) in c.nodes() {
                assert_eq!(c.find_node(name), Some(id));
                assert_eq!(c.node_name(id), name);
            }
            for (idx, (name, e)) in c.elements().enumerate() {
                assert_eq!(c.find_element(name), Some(idx));
                assert_eq!(c.element_name(idx), name);
                assert_eq!(c.element(idx), e);
            }
        }
        assert_eq!(
            *original.element(0),
            Element::Resistor {
                p: a,
                n: NodeId::GROUND,
                r: 100.0
            }
        );
        assert_eq!(
            *clone.element(0),
            Element::Resistor {
                p: a,
                n: NodeId::GROUND,
                r: 200.0
            }
        );

        // Adding to the original after the clone leaves the clone alone.
        original.inductor("L1", a, NodeId::GROUND, 1e-9);
        assert_eq!(original.find_element("l1"), Some(2));
        assert_eq!(clone.find_element("l1"), None);
        assert_eq!(clone.element_name(2), "r2");
    }

    #[test]
    fn current_controlled_sources_require_existing_vsource() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let err = c.cccs("F1", b, NodeId::GROUND, "V1", 2.0).unwrap_err();
        assert!(matches!(err, SpiceError::UnknownName { .. }));
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(1.0));
        c.resistor("R1", a, NodeId::GROUND, 1e3);
        c.cccs("F1", b, NodeId::GROUND, "v1", 2.0).unwrap();
        c.ccvs("H1", b, NodeId::GROUND, "V1", 50.0).unwrap();
        let err = c.cccs("F2", b, NodeId::GROUND, "R1", 2.0).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidParameter { .. }));
        assert!(c.is_linear(), "F/H are linear elements");
    }

    #[test]
    fn set_dc_value_patches_sources_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(1.0));
        c.resistor("R1", a, NodeId::GROUND, 1e3);
        c.set_dc_value("V1", 2.5).unwrap();
        match c.element(0) {
            Element::Vsource { wave, .. } => assert_eq!(*wave, SourceWave::Dc(2.5)),
            _ => panic!("expected vsource"),
        }
        assert!(matches!(
            c.set_dc_value("R1", 1.0),
            Err(SpiceError::InvalidParameter { .. })
        ));
        assert!(matches!(
            c.set_dc_value("nope", 1.0),
            Err(SpiceError::UnknownName { .. })
        ));
    }

    #[test]
    fn scale_element_patches_magnitudes_in_place() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, NodeId::GROUND, 100.0);
        c.capacitor("C1", a, NodeId::GROUND, 1e-12);
        c.vsource("V1", a, NodeId::GROUND, SourceWave::Dc(1.0));
        c.scale_element(0, 1.05).unwrap();
        c.scale_element(1, 0.5).unwrap();
        match *c.element(0) {
            Element::Resistor { r, .. } => assert!((r - 105.0).abs() < 1e-9),
            _ => panic!("expected resistor"),
        }
        match *c.element(1) {
            Element::Capacitor { c: cap, .. } => assert!((cap - 0.5e-12).abs() < 1e-24),
            _ => panic!("expected capacitor"),
        }
        // Sources have no scalable magnitude; bad indices and
        // non-positive results are rejected without mutating.
        assert!(c.scale_element(2, 1.1).is_err());
        assert!(c.scale_element(99, 1.1).is_err());
        assert!(c.scale_element(0, -1.0).is_err());
        assert!(c.scale_element(0, f64::NAN).is_err());
        match *c.element(0) {
            Element::Resistor { r, .. } => assert!((r - 105.0).abs() < 1e-9),
            _ => panic!("expected resistor"),
        }
    }
}
