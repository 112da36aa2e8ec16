#![doc = "tracer-invariant: deterministic"]
//! HDD power-management policies.
//!
//! The array engine already implements the mechanism — an idle member whose
//! quiet period outlasts `ArrayConfig::spin_down_after` is sent to standby,
//! and its next op pays the spin-up phase, all accounted exactly by
//! [`crate::powerlog`]. This module names the *policies* that pick the
//! timeout, so scenario files can say `policy = "timeout"` instead of baking
//! a number into code. Every policy resolves to a static timeout before the
//! simulation starts; the run itself stays a pure function of the trace.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// When an idle member disk is sent to standby.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerPolicy {
    /// Never spin down: the paper's baseline testbed behaviour.
    AlwaysOn,
    /// Spin down after a fixed idle timeout.
    FixedTimeout {
        /// Quiet period before standby.
        idle: SimDuration,
    },
    /// Spin down after the device's own break-even time: the idle period at
    /// which the energy saved in standby equals the spin-up energy, derived
    /// from the member parameters at build time (the canonical adaptive
    /// policy of the dynamic power-management literature).
    BreakEven,
}

impl PowerPolicy {
    /// Resolve the policy to the engine's `spin_down_after` knob, given the
    /// member device's power figures.
    ///
    /// `idle_w`/`standby_w` are the device's idle and standby draw;
    /// `spinup_w`/`spinup_s` the spin-up surge and its duration. For
    /// [`PowerPolicy::BreakEven`] the timeout `t` solves
    /// `(idle_w - standby_w) * t = (spinup_w - idle_w) * spinup_s`.
    pub fn spin_down_after(
        &self,
        idle_w: f64,
        standby_w: f64,
        spinup_w: f64,
        spinup_s: f64,
    ) -> Option<SimDuration> {
        match *self {
            PowerPolicy::AlwaysOn => None,
            PowerPolicy::FixedTimeout { idle } => Some(idle),
            PowerPolicy::BreakEven => {
                let saved_per_sec = (idle_w - standby_w).max(1e-9);
                let spinup_cost = ((spinup_w - idle_w) * spinup_s).max(0.0);
                Some(SimDuration::from_secs_f64(spinup_cost / saved_per_sec))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_never_spins_down() {
        assert_eq!(PowerPolicy::AlwaysOn.spin_down_after(5.0, 0.8, 24.0, 6.0), None);
    }

    #[test]
    fn fixed_timeout_passes_through() {
        let p = PowerPolicy::FixedTimeout { idle: SimDuration::from_secs(30) };
        assert_eq!(p.spin_down_after(5.0, 0.8, 24.0, 6.0), Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn break_even_matches_hand_calculation() {
        // Seagate figures: save 4.2 W in standby, spin-up surge costs
        // (24 - 5) * 6 = 114 J, so break-even at 114 / 4.2 ≈ 27.14 s.
        let t = PowerPolicy::BreakEven.spin_down_after(5.0, 0.8, 24.0, 6.0).unwrap().as_secs_f64();
        assert!((t - 114.0 / 4.2).abs() < 1e-9, "break-even = {t}s");
    }

    #[test]
    fn break_even_degenerate_devices_stay_finite() {
        // A device whose standby saves nothing must not divide by zero.
        let t = PowerPolicy::BreakEven.spin_down_after(5.0, 5.0, 24.0, 6.0).unwrap();
        assert!(t.as_secs_f64().is_finite());
    }
}
