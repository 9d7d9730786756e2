//! Overt attacks: large scheduled bias injection into sensor streams.

use crate::schedule::Schedule;
use pidpiper_math::Vec3;
use pidpiper_sensors::SensorReadings;

/// Which sensor an attack perturbs, and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// Adds `bias` (ENU metres) to the GPS position fix.
    GpsBias(Vec3),
    /// Adds `bias` (rad/s) to the gyroscope body rates.
    GyroBias(Vec3),
    /// Adds `bias` (m/s^2, body frame) to the accelerometer.
    AccelBias(Vec3),
    /// Adds `bias` (m) to the barometric altitude.
    BaroBias(f64),
    /// Adds `bias` (rad) to the magnetometer heading.
    MagBias(f64),
}

impl AttackKind {
    /// Applies the perturbation to a sensor sample in place.
    pub fn apply(&self, r: &mut SensorReadings) {
        match *self {
            AttackKind::GpsBias(b) => r.gps_position += b,
            AttackKind::GyroBias(b) => r.gyro += b,
            AttackKind::AccelBias(b) => r.accel += b,
            AttackKind::BaroBias(b) => r.baro_altitude += b,
            AttackKind::MagBias(b) => {
                r.mag_heading = pidpiper_math::wrap_angle(r.mag_heading + b)
            }
        }
    }

}

/// A scheduled overt attack.
#[derive(Debug, Clone, PartialEq)]
pub struct Attack {
    /// What to perturb.
    pub kind: AttackKind,
    /// When to perturb it.
    pub schedule: Schedule,
}

impl Attack {
    /// Creates an attack from a kind and schedule.
    pub fn new(kind: AttackKind, schedule: Schedule) -> Self {
        Attack { kind, schedule }
    }

    /// Applies the attack to `readings` if active at time `t`.
    /// Returns `true` when the perturbation was applied.
    pub fn apply(&self, readings: &mut SensorReadings, t: f64) -> bool {
        if self.schedule.is_active(t) {
            self.kind.apply(readings);
            true
        } else {
            false
        }
    }
}

/// The paper's three overt-attack presets (Section VI-A, "Attacks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackPreset {
    /// Attack-1: gyroscope bias producing more than 20 degrees of attitude
    /// error.
    GyroOvert,
    /// Attack-2: GPS bias producing more than 20 m of position error.
    GpsOvert,
    /// Attack-3: gyroscope tampering during the vehicle's vulnerable
    /// landing phase — often crashes unprotected RVs.
    GyroAtLanding,
}

impl AttackPreset {
    /// All three presets.
    pub const ALL: [AttackPreset; 3] = [
        AttackPreset::GyroOvert,
        AttackPreset::GpsOvert,
        AttackPreset::GyroAtLanding,
    ];

    /// Instantiates the preset.
    ///
    /// - `mission_start`: when the attack bursts begin (s);
    /// - `landing_window`: the `[start, end)` of the landing phase, needed
    ///   only by [`AttackPreset::GyroAtLanding`].
    pub fn instantiate(self, mission_start: f64, landing_window: (f64, f64)) -> Attack {
        match self {
            AttackPreset::GyroOvert => Attack::new(
                // 0.7 rad/s roll-rate bias integrates to well over 20
                // degrees of attitude error within each burst.
                AttackKind::GyroBias(Vec3::new(0.7, 0.0, 0.0)),
                Schedule::Intermittent {
                    start: mission_start,
                    on: 4.0,
                    off: 6.0,
                },
            ),
            AttackPreset::GpsOvert => Attack::new(
                // 25 m lateral spoof (> 20 m position error) plus a
                // vertical component: real spoofers shift the full 3-D fix,
                // and the altitude error is what drives unprotected drones
                // into the ground.
                AttackKind::GpsBias(Vec3::new(0.0, 25.0, 14.0)),
                Schedule::Intermittent {
                    start: mission_start,
                    on: 4.0,
                    off: 6.0,
                },
            ),
            AttackPreset::GyroAtLanding => Attack::new(
                AttackKind::GyroBias(Vec3::new(0.9, 0.4, 0.0)),
                Schedule::Windows(vec![landing_window]),
            ),
        }
    }

    /// Name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            AttackPreset::GyroOvert => "gyro-overt",
            AttackPreset::GpsOvert => "gps-overt",
            AttackPreset::GyroAtLanding => "gyro-landing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gps_bias_applies_only_when_scheduled() {
        let attack = Attack::new(
            AttackKind::GpsBias(Vec3::new(10.0, 0.0, 0.0)),
            Schedule::Windows(vec![(5.0, 6.0)]),
        );
        let mut r = SensorReadings::default();
        assert!(!attack.apply(&mut r, 4.0));
        assert_eq!(r.gps_position.x, 0.0);
        assert!(attack.apply(&mut r, 5.5));
        assert_eq!(r.gps_position.x, 10.0);
    }

    #[test]
    fn each_kind_touches_only_its_sensor() {
        let mut r = SensorReadings::default();
        AttackKind::GyroBias(Vec3::new(0.5, 0.0, 0.0)).apply(&mut r);
        assert_eq!(r.gyro.x, 0.5);
        assert_eq!(r.gps_position, Vec3::ZERO);
        AttackKind::BaroBias(3.0).apply(&mut r);
        assert_eq!(r.baro_altitude, 3.0);
        AttackKind::MagBias(0.2).apply(&mut r);
        assert!((r.mag_heading - 0.2).abs() < 1e-12);
        AttackKind::AccelBias(Vec3::new(0.0, 1.0, 0.0)).apply(&mut r);
        assert_eq!(r.accel.y, 1.0);
    }

    #[test]
    fn mag_bias_wraps() {
        let mut r = SensorReadings {
            mag_heading: 3.0,
            ..SensorReadings::default()
        };
        AttackKind::MagBias(1.0).apply(&mut r);
        assert!(r.mag_heading <= std::f64::consts::PI);
    }

    #[test]
    fn presets_instantiate_with_correct_magnitudes() {
        let a = AttackPreset::GpsOvert.instantiate(10.0, (0.0, 0.0));
        match a.kind {
            AttackKind::GpsBias(b) => assert!(b.norm() > 20.0, "paper requires > 20 m"),
            _ => panic!("wrong kind"),
        }
        let g = AttackPreset::GyroOvert.instantiate(10.0, (0.0, 0.0));
        match g.kind {
            // 0.7 rad/s for a 4 s burst is far beyond 20 degrees.
            AttackKind::GyroBias(b) => assert!(b.norm() * 4.0 > 20.0_f64.to_radians()),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn landing_attack_respects_window() {
        let a = AttackPreset::GyroAtLanding.instantiate(0.0, (50.0, 60.0));
        let mut r = SensorReadings::default();
        assert!(!a.apply(&mut r, 30.0));
        assert!(a.apply(&mut r, 55.0));
    }
}
