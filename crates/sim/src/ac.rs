//! Small-signal AC analysis.
//!
//! The defect-oriented literature this paper builds on (Sachdev, ESSCIRC
//! 1994) uses "simple DC, Transient and AC measurements"; this module
//! supplies the third kind: the circuit is linearised around its DC
//! operating point and the complex system `(G + jωC)·x = b` is solved per
//! frequency, with one designated source carrying a unit AC stimulus.

use crate::engine::{OpPoint, Simulator};
use crate::error::SimError;
use crate::matrix::SingularInfo;
use crate::models::{diode_eval, mosfet_eval, switch_eval};
use dotm_netlist::{DeviceKind, DiodeParams, NodeId};

/// A complex number (the workspace stays dependency-free, so a minimal
/// implementation lives here).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Magnitude in decibels (20·log₁₀|·|).
    pub fn db(self) -> f64 {
        20.0 * self.abs().max(1e-300).log10()
    }

    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }

    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }

    fn div(self, other: Complex) -> Complex {
        // Smith's algorithm: the textbook (ac + bd)/(c² + d²) form
        // under/overflows once |other| strays past ~1e±154, because the
        // squared denominator leaves f64 range long before the quotient
        // does. Dividing by the larger component first keeps every
        // intermediate within a couple of ULP of the operand scale, so
        // badly-scaled (but well-conditioned) AC systems stay solvable.
        if other.re.abs() >= other.im.abs() {
            let r = other.im / other.re;
            let d = other.re + other.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = other.re / other.im;
            let d = other.re * r + other.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

/// Dense complex matrix with LU solve (partial pivoting by magnitude).
struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    fn zeros(n: usize) -> Self {
        ComplexMatrix {
            n,
            data: vec![Complex::default(); n * n],
        }
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: Complex) {
        let e = &mut self.data[r * self.n + c];
        e.re += v.re;
        e.im += v.im;
    }

    fn solve_in_place(&mut self, b: &mut [Complex]) -> Result<(), SingularInfo> {
        let n = self.n;
        let a = &mut self.data;
        for k in 0..n {
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            // Scale-relative singularity test, mirroring the real
            // `LuFactors::refactor`: the pivot must be meaningful
            // relative to the largest magnitude in the factored column,
            // not relative to an absolute floor — badly-scaled but
            // well-conditioned AC systems (huge R, tiny ωC) must solve.
            let mut col_max = max;
            for i in 0..k {
                col_max = col_max.max(a[i * n + k].abs());
            }
            if max.is_nan() || max <= col_max * 1e-14 {
                return Err(SingularInfo {
                    col: k,
                    pivot_mag: max,
                });
            }
            if piv != k {
                for j in 0..n {
                    a.swap(k * n + j, piv * n + j);
                }
                b.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k].div(pivot);
                if factor.re == 0.0 && factor.im == 0.0 {
                    continue;
                }
                a[i * n + k] = Complex::default();
                for j in (k + 1)..n {
                    let s = factor.mul(a[k * n + j]);
                    a[i * n + j] = a[i * n + j].sub(s);
                }
                b[i] = b[i].sub(factor.mul(b[k]));
            }
        }
        for k in (0..n).rev() {
            let mut acc = b[k];
            for j in (k + 1)..n {
                acc = acc.sub(a[k * n + j].mul(b[j]));
            }
            b[k] = acc.div(a[k * n + k]);
        }
        Ok(())
    }
}

/// Result of an AC sweep: complex node voltages per frequency, for a unit
/// AC stimulus on the designated source.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// `solutions[f][unknown]`
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The analysed frequencies (Hz).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage of `node` at frequency index `k`.
    pub fn voltage(&self, k: usize, node: NodeId) -> Complex {
        if node.is_ground() {
            Complex::default()
        } else {
            self.solutions[k][node.index() - 1]
        }
    }

    /// Magnitude response of `node` across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|k| self.voltage(k, node).abs())
            .collect()
    }

    /// Index of the −3 dB point of `node` relative to its first-frequency
    /// magnitude, if the response crosses it.
    pub fn minus_3db_index(&self, node: NodeId) -> Option<usize> {
        let mags = self.magnitude(node);
        let reference = *mags.first()?;
        let target = reference / 2.0_f64.sqrt();
        mags.iter().position(|&m| m < target)
    }
}

impl<'a> Simulator<'a> {
    /// Runs an AC sweep: linearises around `op` and applies a unit AC
    /// stimulus to the voltage source named `source`, solving at each
    /// frequency in `freqs`.
    ///
    /// ```
    /// use dotm_netlist::{Netlist, Waveform};
    /// use dotm_sim::Simulator;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut nl = Netlist::new("rc");
    /// let inp = nl.node("in");
    /// let out = nl.node("out");
    /// nl.add_vsource("VIN", inp, Netlist::GROUND, Waveform::dc(0.0))?;
    /// nl.add_resistor("R1", inp, out, 1e3)?;
    /// nl.add_capacitor("C1", out, Netlist::GROUND, 1e-9)?;
    /// let mut sim = Simulator::new(&nl);
    /// let op = sim.dc_op()?;
    /// let ac = sim.ac(&op, "VIN", &[1e3, 1e9])?;
    /// assert!(ac.voltage(0, out).abs() > 0.99); // passband
    /// assert!(ac.voltage(1, out).abs() < 0.01); // far beyond the pole
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// [`SimError::BadSource`] if `source` is not a voltage source;
    /// [`SimError::Singular`] if the linearised system is singular.
    pub fn ac(&mut self, op: &OpPoint, source: &str, freqs: &[f64]) -> Result<AcResult, SimError> {
        let nl = self.netlist();
        let ac_id = nl
            .device_id(source)
            .filter(|id| {
                matches!(
                    nl.device_by_id(*id).map(|d| &d.kind),
                    Some(DeviceKind::Vsource { .. })
                )
            })
            .ok_or_else(|| SimError::BadSource(source.to_string()))?;
        let n_nodes = nl.node_count();
        let vsrc: Vec<_> = nl
            .devices()
            .filter(|(_, d)| matches!(d.kind, DeviceKind::Vsource { .. }))
            .map(|(id, _)| id)
            .collect();
        let n = (n_nodes - 1) + vsrc.len();
        let row = |node: NodeId| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        let volt = |node: NodeId| op.voltage(node);
        let gmin = self.options().gmin;

        let mut solutions = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let w = 2.0 * std::f64::consts::PI * f;
            let t_asm = dotm_obs::start();
            let mut a = ComplexMatrix::zeros(n);
            let mut b = vec![Complex::default(); n];
            for r in 0..(n_nodes - 1) {
                a.add(r, r, Complex::new(gmin, 0.0));
            }
            let stamp_g = |a: &mut ComplexMatrix, p: NodeId, q: NodeId, g: Complex| {
                if let Some(rp) = row(p) {
                    a.add(rp, rp, g);
                    if let Some(rq) = row(q) {
                        a.add(rp, rq, Complex::new(-g.re, -g.im));
                        a.add(rq, rp, Complex::new(-g.re, -g.im));
                        a.add(rq, rq, g);
                    }
                } else if let Some(rq) = row(q) {
                    a.add(rq, rq, g);
                }
            };
            let stamp_vccs = |a: &mut ComplexMatrix,
                              out_p: NodeId,
                              out_q: NodeId,
                              ctl_p: NodeId,
                              ctl_q: NodeId,
                              g: f64| {
                for (out, sign) in [(out_p, 1.0), (out_q, -1.0)] {
                    if let Some(ro) = row(out) {
                        if let Some(rc) = row(ctl_p) {
                            a.add(ro, rc, Complex::new(sign * g, 0.0));
                        }
                        if let Some(rc) = row(ctl_q) {
                            a.add(ro, rc, Complex::new(-sign * g, 0.0));
                        }
                    }
                }
            };

            for (id, dev) in nl.devices() {
                match &dev.kind {
                    DeviceKind::Resistor { a: p, b: q, ohms } => {
                        stamp_g(&mut a, *p, *q, Complex::new(1.0 / ohms, 0.0));
                    }
                    DeviceKind::Capacitor { a: p, b: q, farads } => {
                        stamp_g(&mut a, *p, *q, Complex::new(0.0, w * farads));
                    }
                    DeviceKind::Vsource { pos, neg, .. } => {
                        let k = vsrc.iter().position(|&v| v == id).expect("collected");
                        let br = (n_nodes - 1) + k;
                        if let Some(rp) = row(*pos) {
                            a.add(rp, br, Complex::new(1.0, 0.0));
                            a.add(br, rp, Complex::new(1.0, 0.0));
                        }
                        if let Some(rq) = row(*neg) {
                            a.add(rq, br, Complex::new(-1.0, 0.0));
                            a.add(br, rq, Complex::new(-1.0, 0.0));
                        }
                        // Only the designated source carries AC drive.
                        b[br] = if id == ac_id {
                            Complex::new(1.0, 0.0)
                        } else {
                            Complex::default()
                        };
                    }
                    DeviceKind::Isource { .. } => {
                        // Independent current sources are AC-quiet.
                    }
                    DeviceKind::Diode {
                        anode,
                        cathode,
                        params,
                    } => {
                        let (_, gd) = diode_eval(volt(*anode) - volt(*cathode), params);
                        stamp_g(&mut a, *anode, *cathode, Complex::new(gd, 0.0));
                    }
                    DeviceKind::Mosfet {
                        d,
                        g,
                        s,
                        b: bulk,
                        ty,
                        params,
                    } => {
                        let ch = mosfet_eval(
                            volt(*g) - volt(*s),
                            volt(*d) - volt(*s),
                            volt(*bulk) - volt(*s),
                            *ty,
                            params,
                        );
                        stamp_vccs(&mut a, *d, *s, *g, *s, ch.gm);
                        stamp_vccs(&mut a, *d, *s, *d, *s, ch.gds);
                        stamp_vccs(&mut a, *d, *s, *bulk, *s, ch.gmbs);
                        // Junction small-signal conductances.
                        let jp = DiodeParams {
                            is: params.is_leak,
                            n: 1.0,
                        };
                        let junctions = match ty {
                            dotm_netlist::MosType::Nmos => [(*bulk, *d), (*bulk, *s)],
                            dotm_netlist::MosType::Pmos => [(*d, *bulk), (*s, *bulk)],
                        };
                        for (an, ca) in junctions {
                            let (_, gd) = diode_eval(volt(an) - volt(ca), &jp);
                            stamp_g(&mut a, an, ca, Complex::new(gd, 0.0));
                        }
                        // Device capacitances.
                        let cg = 0.5 * params.gate_cap();
                        stamp_g(&mut a, *g, *s, Complex::new(0.0, w * cg));
                        stamp_g(&mut a, *g, *d, Complex::new(0.0, w * cg));
                        stamp_g(&mut a, *d, *bulk, Complex::new(0.0, w * params.cj));
                        stamp_g(&mut a, *s, *bulk, Complex::new(0.0, w * params.cj));
                    }
                    DeviceKind::Switch {
                        a: p,
                        b: q,
                        cp,
                        cn,
                        params,
                    } => {
                        let (g, _) = switch_eval(volt(*cp) - volt(*cn), params);
                        stamp_g(&mut a, *p, *q, Complex::new(g, 0.0));
                    }
                }
            }
            dotm_obs::phase(dotm_obs::Phase::Assembly, t_asm);
            let t_lu = dotm_obs::start();
            let ok = a.solve_in_place(&mut b);
            dotm_obs::phase(dotm_obs::Phase::Lu, t_lu);
            if ok.is_err() {
                return Err(SimError::Singular { analysis: "ac" });
            }
            solutions.push(b[..(n_nodes - 1)].to_vec());
        }
        Ok(AcResult {
            freqs: freqs.to_vec(),
            solutions,
        })
    }
}

/// Builds a logarithmically spaced frequency grid (decades between
/// `f_lo` and `f_hi`, `points_per_decade` each).
pub fn log_sweep(f_lo: f64, f_hi: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(f_lo > 0.0 && f_hi > f_lo && points_per_decade > 0);
    let decades = (f_hi / f_lo).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize;
    (0..=n)
        .map(|k| f_lo * 10f64.powf(k as f64 / points_per_decade as f64))
        .take_while(|&f| f <= f_hi * 1.0001)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dotm_netlist::{MosType, MosfetParams, Netlist, Waveform};

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(3.0, 4.0);
        assert!((a.abs() - 5.0).abs() < 1e-12);
        let b = Complex::new(1.0, -1.0);
        let p = a.mul(b);
        assert!((p.re - 7.0).abs() < 1e-12 && (p.im - 1.0).abs() < 1e-12);
        let q = p.div(b);
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
        assert!((Complex::new(10.0, 0.0).db() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1k, C = 1µF → f_c = 159.15 Hz.
        let mut nl = Netlist::new("rc");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("VIN", inp, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        nl.add_resistor("R1", inp, out, 1e3).unwrap();
        nl.add_capacitor("C1", out, Netlist::GROUND, 1e-6).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-6);
        let ac = sim.ac(&op, "VIN", &[fc / 100.0, fc, fc * 100.0]).unwrap();
        let g_low = ac.voltage(0, out).abs();
        let g_pole = ac.voltage(1, out).abs();
        let g_high = ac.voltage(2, out).abs();
        assert!((g_low - 1.0).abs() < 1e-3, "low-f gain {g_low}");
        assert!(
            (g_pole - 1.0 / 2.0f64.sqrt()).abs() < 1e-3,
            "pole gain {g_pole}"
        );
        assert!((g_high - 0.01).abs() < 1e-3, "high-f gain {g_high}");
        // Phase at the pole is −45°.
        let phase = ac.voltage(1, out).arg().to_degrees();
        assert!((phase + 45.0).abs() < 0.5, "phase {phase}");
    }

    #[test]
    fn divider_is_flat() {
        let mut nl = Netlist::new("div");
        let inp = nl.node("in");
        let mid = nl.node("mid");
        nl.add_vsource("VIN", inp, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        nl.add_resistor("R1", inp, mid, 1e3).unwrap();
        nl.add_resistor("R2", mid, Netlist::GROUND, 1e3).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        let freqs = log_sweep(1.0, 1e9, 2);
        let ac = sim.ac(&op, "VIN", &freqs).unwrap();
        for m in ac.magnitude(mid) {
            assert!((m - 0.5).abs() < 1e-6);
        }
        assert!(ac.minus_3db_index(mid).is_none());
    }

    #[test]
    fn common_source_gain_and_rolloff() {
        // NMOS common-source with 10k load: |gain| ≈ gm·(RD ∥ ro) at low
        // frequency, rolling off through the gate/junction caps.
        let mut nl = Netlist::new("cs");
        let vdd = nl.node("vdd");
        let g = nl.node("g");
        let d = nl.node("d");
        nl.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(5.0))
            .unwrap();
        nl.add_vsource("VG", g, Netlist::GROUND, Waveform::dc(1.2))
            .unwrap();
        nl.add_resistor("RD", vdd, d, 10e3).unwrap();
        // Explicit load capacitance sets a clean dominant pole.
        nl.add_capacitor("CL", d, Netlist::GROUND, 10e-12).unwrap();
        let p = MosfetParams::nmos_default();
        nl.add_mosfet(
            "M1",
            d,
            g,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            p.clone(),
        )
        .unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        let vd = op.voltage(d);
        assert!(vd > 1.0, "device must be saturated, vd = {vd}");
        let ch = mosfet_eval(1.2, vd, 0.0, MosType::Nmos, &p);
        let rout = 1.0 / (1.0 / 10e3 + ch.gds);
        let expect = ch.gm * rout;
        let freqs = log_sweep(1e3, 1e9, 4);
        let ac = sim.ac(&op, "VG", &freqs).unwrap();
        let g_low = ac.voltage(0, d).abs();
        assert!(
            (g_low - expect).abs() / expect < 0.02,
            "gain {g_low} vs gm·rout {expect}"
        );
        // −3 dB near 1/(2π·rout·CL).
        let k = ac.minus_3db_index(d).expect("must roll off");
        let fc = 1.0 / (2.0 * std::f64::consts::PI * rout * 10e-12);
        let f_found = ac.freqs()[k];
        assert!(
            f_found / fc > 0.5 && f_found / fc < 2.0,
            "rolloff at {f_found:.3e}, expected near {fc:.3e}"
        );
    }

    #[test]
    fn log_sweep_spacing() {
        let f = log_sweep(1.0, 1000.0, 1);
        assert_eq!(f.len(), 4);
        assert!((f[3] - 1000.0).abs() < 1e-9);
        let f = log_sweep(10.0, 100.0, 10);
        assert_eq!(f.len(), 11);
    }

    #[test]
    fn complex_lu_scale_invariant() {
        // Unit-level mirror of the matrix.rs regression: a well-conditioned
        // 2×2 complex system scaled to ~1e-302 must solve (the old absolute
        // 1e-300 floor declared it singular), and exact cancellation must
        // stay singular at any scale.
        let s = 1e-302;
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 0, Complex::new(2.0 * s, s));
        m.add(0, 1, Complex::new(s, 0.0));
        m.add(1, 0, Complex::new(s, 0.0));
        m.add(1, 1, Complex::new(3.0 * s, -s));
        let mut b = vec![Complex::new(3.0 * s, 0.0), Complex::new(5.0 * s, 0.0)];
        assert!(
            m.solve_in_place(&mut b).is_ok(),
            "scaled complex system must solve"
        );
        // Residual check against the original entries.
        let a00 = Complex::new(2.0 * s, s);
        let a01 = Complex::new(s, 0.0);
        let r0 = a00.mul(b[0]).sub(Complex::new(3.0 * s, 0.0));
        let r0 = Complex::new(r0.re + a01.mul(b[1]).re, r0.im + a01.mul(b[1]).im);
        assert!(r0.abs() / s < 1e-10, "residual {:e}", r0.abs() / s);

        for scale in [1e-250, 1.0] {
            let mut m = ComplexMatrix::zeros(2);
            m.add(0, 0, Complex::new(scale, scale));
            m.add(0, 1, Complex::new(2.0 * scale, 2.0 * scale));
            m.add(1, 0, Complex::new(2.0 * scale, 2.0 * scale));
            m.add(1, 1, Complex::new(4.0 * scale, 4.0 * scale));
            let mut b = vec![Complex::new(scale, 0.0), Complex::new(scale, 0.0)];
            let info = m
                .solve_in_place(&mut b)
                .expect_err("cancellation must stay singular");
            assert_eq!(info.col, 1, "cancellation shows at the second column");
        }
    }

    #[test]
    fn badly_scaled_rc_ac_solves() {
        // End-to-end regression for the absolute singularity floor: a huge
        // resistor (1e305 Ω) into a tiny capacitor, gmin disabled, at the
        // frequency where R·ωC = 1. Every matrix entry in the output
        // node's column is far below 1e-300, so the old complex LU bailed
        // out as Singular; the circuit is a perfectly ordinary RC divider
        // with gain 1/(1+j) at this frequency.
        let mut nl = Netlist::new("huge_rc");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("VIN", inp, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        nl.add_resistor("R1", inp, out, 1e305).unwrap();
        nl.add_capacitor("C1", out, Netlist::GROUND, 1e-18).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        sim.options_mut().gmin = 0.0;
        // R·ωC = 1  ⇒  f = 1 / (2π · 1e305 · 1e-18)
        let f = 1.0 / (2.0 * std::f64::consts::PI * 1e305 * 1e-18);
        let ac = sim.ac(&op, "VIN", &[f]).expect("well-conditioned AC");
        let g = ac.voltage(0, out);
        assert!(
            (g.abs() - 1.0 / 2.0f64.sqrt()).abs() < 1e-6,
            "|gain| {} vs 1/√2",
            g.abs()
        );
        let phase = g.arg().to_degrees();
        assert!((phase + 45.0).abs() < 1e-3, "phase {phase}");
    }

    #[test]
    fn truly_singular_ac_still_rejected() {
        // A genuinely floating node with gmin off must still be reported
        // as Singular — the relative pivot test may not paper over real
        // rank deficiency.
        let mut nl = Netlist::new("float");
        let inp = nl.node("in");
        let _orphan = nl.node("float");
        nl.add_vsource("VIN", inp, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        sim.options_mut().gmin = 0.0;
        assert!(matches!(
            sim.ac(&op, "VIN", &[1e3]),
            Err(SimError::Singular { analysis: "ac" })
        ));
    }

    #[test]
    fn ac_rejects_non_source() {
        let mut nl = Netlist::new("t");
        let a = nl.node("a");
        nl.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let mut sim = Simulator::new(&nl);
        let op = sim.dc_op().unwrap();
        assert!(matches!(
            sim.ac(&op, "R1", &[1e3]),
            Err(SimError::BadSource(_))
        ));
    }
}
