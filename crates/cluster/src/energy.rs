//! Utilization-driven energy accounting.
//!
//! The paper computes energy exactly this way: "Energy consumption was
//! calculated by taking the average CPU utilization of each machine,
//! converting it to a corresponding wattage and multiplying it by the total
//! experiment time" (§3.3.2). [`EnergyModel`] is that conversion;
//! [`EnergyMeter`] integrates it over piecewise-constant utilization.

use cbp_simkit::{SimDuration, SimTime};

/// Linear utilization → power conversion.
///
/// `watts(u) = idle + (peak - idle) * u` — the standard affine server power
/// model. Defaults approximate the paper's dual Xeon 5650 machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    idle_watts: f64,
    peak_watts: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            idle_watts: 100.0,
            peak_watts: 250.0,
        }
    }
}

impl EnergyModel {
    /// Creates a model with the given idle and peak draw.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or `peak < idle`.
    pub fn new(idle_watts: f64, peak_watts: f64) -> Self {
        assert!(idle_watts >= 0.0, "idle power must be non-negative");
        assert!(peak_watts >= idle_watts, "peak power must be >= idle power");
        EnergyModel {
            idle_watts,
            peak_watts,
        }
    }

    /// Power draw at CPU utilization `u` (clamped to `[0, 1]`).
    pub fn watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.peak_watts - self.idle_watts) * u
    }

    /// Idle draw.
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Fully-loaded draw.
    pub fn peak_watts(&self) -> f64 {
        self.peak_watts
    }
}

/// Integrates one machine's energy over piecewise-constant utilization.
///
/// Call [`EnergyMeter::set_utilization`] whenever the machine's allocation
/// changes; the meter charges the elapsed interval at the previous level.
///
/// ```
/// use cbp_cluster::{EnergyMeter, EnergyModel};
/// use cbp_simkit::SimTime;
///
/// let mut m = EnergyMeter::new(EnergyModel::new(100.0, 200.0));
/// m.set_utilization(SimTime::ZERO, 1.0);
/// m.set_utilization(SimTime::from_secs(3600), 0.0); // 1 h at peak
/// assert!((m.kwh(SimTime::from_secs(3600)) - 0.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: EnergyModel,
    joules: f64,
    last_update: SimTime,
    current_util: f64,
}

impl EnergyMeter {
    /// Creates a meter starting idle at time zero.
    pub fn new(model: EnergyModel) -> Self {
        EnergyMeter {
            model,
            joules: 0.0,
            last_update: SimTime::ZERO,
            current_util: 0.0,
        }
    }

    /// The conversion model.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    fn charge_until(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "energy meter time went backwards");
        let dt: SimDuration = now.saturating_since(self.last_update);
        self.joules += self.model.watts(self.current_util) * dt.as_secs_f64();
        self.last_update = now;
    }

    /// Records that utilization changed to `utilization` at time `now`.
    pub fn set_utilization(&mut self, now: SimTime, utilization: f64) {
        self.charge_until(now);
        self.current_util = utilization.clamp(0.0, 1.0);
    }

    /// Energy consumed through `now`, in joules (includes the tail interval
    /// at the current level).
    pub fn joules(&self, now: SimTime) -> f64 {
        let tail: SimDuration = now.saturating_since(self.last_update);
        self.joules + self.model.watts(self.current_util) * tail.as_secs_f64()
    }

    /// Energy consumed through `now`, in kilowatt-hours (the unit of the
    /// paper's Fig. 3b and Fig. 8b).
    pub fn kwh(&self, now: SimTime) -> f64 {
        self.joules(now) / 3.6e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_is_affine_and_clamped() {
        let m = EnergyModel::new(100.0, 250.0);
        assert_eq!(m.watts(0.0), 100.0);
        assert_eq!(m.watts(1.0), 250.0);
        assert_eq!(m.watts(0.5), 175.0);
        assert_eq!(m.watts(-1.0), 100.0);
        assert_eq!(m.watts(2.0), 250.0);
        assert_eq!(m.idle_watts(), 100.0);
        assert_eq!(m.peak_watts(), 250.0);
    }

    #[test]
    #[should_panic(expected = "peak power")]
    fn peak_below_idle_rejected() {
        EnergyModel::new(100.0, 50.0);
    }

    #[test]
    fn meter_integrates_piecewise() {
        let mut meter = EnergyMeter::new(EnergyModel::new(100.0, 200.0));
        // 10 s idle, then 10 s at full load.
        meter.set_utilization(SimTime::from_secs(10), 1.0);
        let j = meter.joules(SimTime::from_secs(20));
        assert!((j - (100.0 * 10.0 + 200.0 * 10.0)).abs() < 1e-9);
    }

    #[test]
    fn idle_machine_still_draws_power() {
        let meter = EnergyMeter::new(EnergyModel::default());
        let j = meter.joules(SimTime::from_secs(100));
        assert!((j - 100.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn kwh_conversion() {
        let mut meter = EnergyMeter::new(EnergyModel::new(0.0, 1000.0));
        meter.set_utilization(SimTime::ZERO, 1.0);
        // 1 kW for one hour = 1 kWh.
        assert!((meter.kwh(SimTime::from_secs(3600)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_updates_at_same_instant_are_safe() {
        let mut meter = EnergyMeter::new(EnergyModel::default());
        meter.set_utilization(SimTime::from_secs(5), 0.5);
        meter.set_utilization(SimTime::from_secs(5), 0.7);
        meter.set_utilization(SimTime::from_secs(5), 0.2);
        let j = meter.joules(SimTime::from_secs(5));
        assert!((j - 100.0 * 5.0).abs() < 1e-9);
    }
}
