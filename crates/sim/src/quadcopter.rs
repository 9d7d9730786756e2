//! Six-degree-of-freedom quadcopter rigid-body model.
//!
//! An X-configuration quadrotor with four normalized motor inputs.
//! Dynamics:
//!
//! - translational: `m * dv/dt = R(att) * (0,0,T) - m*g*z + F_drag + F_wind`;
//! - rotational: `I * dw/dt = tau - w x (I*w)`;
//! - Euler-angle kinematics via the standard Z-Y-X rate transform;
//! - linear aerodynamic drag relative to the air mass;
//! - ground contact with landed/crashed classification.
//!
//! Motor ordering follows the ArduPilot quad-X convention:
//! `0 = front-right (CCW), 1 = rear-left (CCW), 2 = front-left (CW),
//! 3 = rear-right (CW)`.

use crate::state::{ContactStatus, RigidBodyState};
use pidpiper_math::{Mat3, Vec3};

/// Standard gravity (m/s^2).
pub const GRAVITY: f64 = 9.80665;

/// Physical parameters of a quadcopter airframe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadParams {
    /// Vehicle mass in kilograms.
    pub mass: f64,
    /// Diagonal body inertia (kg·m^2) about (x, y, z).
    pub inertia: Vec3,
    /// Distance from centre to each motor along both body axes (m); for an
    /// X-frame with arm length `L` this is `L / sqrt(2)`.
    pub arm_offset: f64,
    /// Maximum total thrust of all four motors together, as a multiple of
    /// hover weight (e.g. `2.0` means thrust-to-weight ratio of 2).
    pub thrust_to_weight: f64,
    /// Yaw reaction-torque coefficient: N·m of yaw torque per newton of
    /// motor thrust.
    pub yaw_torque_coeff: f64,
    /// Linear drag coefficient (N per m/s of airspeed).
    pub linear_drag: f64,
    /// Rotational damping (N·m per rad/s) modelling blade flapping and
    /// frame drag.
    pub angular_damping: f64,
    /// Attitude magnitude beyond which ground contact is a crash (rad).
    pub crash_attitude: f64,
    /// Sink rate beyond which ground contact is a crash (m/s).
    pub crash_sink_rate: f64,
    /// First-order motor response time constant (s).
    pub motor_tau: f64,
}

impl QuadParams {
    /// Maximum thrust of a single motor (N).
    #[inline]
    pub fn max_motor_thrust(&self) -> f64 {
        self.thrust_to_weight * self.mass * GRAVITY / 4.0
    }

    /// Normalized motor command that produces exact hover.
    #[inline]
    pub fn hover_command(&self) -> f64 {
        1.0 / self.thrust_to_weight
    }

    /// Validates physical plausibility.
    ///
    /// # Panics
    ///
    /// Panics if mass, inertia or thrust-to-weight are non-positive, or if
    /// thrust-to-weight does not exceed 1 (the vehicle could never hover).
    pub fn validate(&self) {
        assert!(self.mass > 0.0, "mass must be positive");
        assert!(
            self.inertia.x > 0.0 && self.inertia.y > 0.0 && self.inertia.z > 0.0,
            "inertia must be positive"
        );
        assert!(
            self.thrust_to_weight > 1.0,
            "thrust-to-weight must exceed 1 for hover"
        );
        assert!(self.arm_offset > 0.0, "arm offset must be positive");
        assert!(self.motor_tau > 0.0, "motor time constant must be positive");
    }
}

impl Default for QuadParams {
    /// A mid-size 1.5 kg research quadcopter, similar to the paper's
    /// ArduCopter default airframe.
    fn default() -> Self {
        QuadParams {
            mass: 1.5,
            inertia: Vec3::new(0.029, 0.029, 0.055),
            arm_offset: 0.18,
            thrust_to_weight: 2.0,
            yaw_torque_coeff: 0.016,
            linear_drag: 0.35,
            angular_damping: 0.012,
            crash_attitude: 75.0_f64.to_radians(),
            crash_sink_rate: 2.5,
            motor_tau: 0.04,
        }
    }
}

/// A simulated quadcopter.
///
/// Step the model with [`Quadcopter::step`], feeding normalized motor
/// commands in `[0, 1]`. The simulator clamps commands, applies first-order
/// motor lag, integrates rigid-body dynamics with semi-implicit Euler, and
/// reports ground-contact status.
///
/// # Examples
///
/// ```
/// use pidpiper_sim::quadcopter::{QuadParams, Quadcopter};
/// use pidpiper_math::Vec3;
///
/// let mut quad = Quadcopter::new(QuadParams::default());
/// let hover = quad.params().hover_command();
/// // Slightly above hover: the quad must climb.
/// for _ in 0..400 {
///     quad.step([hover * 1.1; 4], Vec3::ZERO, 1.0 / 400.0);
/// }
/// assert!(quad.state().position.z > 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Quadcopter {
    params: QuadParams,
    state: RigidBodyState,
    motor_thrusts: [f64; 4],
    contact: ContactStatus,
    airborne_since_takeoff: bool,
}

impl Quadcopter {
    /// Creates a quadcopter at rest on the ground at the origin.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`QuadParams::validate`].
    pub fn new(params: QuadParams) -> Self {
        params.validate();
        Quadcopter {
            params,
            state: RigidBodyState::default(),
            motor_thrusts: [0.0; 4],
            contact: ContactStatus::Airborne,
            airborne_since_takeoff: false,
        }
    }

    /// The airframe parameters.
    #[inline]
    pub fn params(&self) -> &QuadParams {
        &self.params
    }

    /// The current ground-truth state.
    #[inline]
    pub fn state(&self) -> &RigidBodyState {
        &self.state
    }

    /// Ground-contact status after the most recent step.
    #[inline]
    pub fn contact(&self) -> ContactStatus {
        self.contact
    }

    /// Whether the vehicle has crashed (latched: once crashed, stays crashed).
    #[inline]
    pub fn is_crashed(&self) -> bool {
        self.contact.is_crash()
    }

    /// Current per-motor thrusts in newtons (after motor lag).
    #[inline]
    pub fn motor_thrusts(&self) -> [f64; 4] {
        self.motor_thrusts
    }

    /// Advances the simulation by `dt` seconds under normalized motor
    /// commands (each clamped to `[0, 1]`) and a world-frame wind velocity.
    ///
    /// Returns the contact status after the step. Once crashed, the model
    /// freezes and further steps are no-ops.
    pub fn step(&mut self, motor_cmds: [f64; 4], wind: Vec3, dt: f64) -> ContactStatus {
        debug_assert!(dt > 0.0 && dt < 0.1, "dt out of sane range: {dt}");
        if self.contact.is_crash() {
            return self.contact;
        }

        let p = &self.params;
        let max_f = p.max_motor_thrust();

        // First-order motor lag towards the commanded thrust.
        let alpha = (dt / p.motor_tau).min(1.0);
        for (thrust, cmd) in self.motor_thrusts.iter_mut().zip(motor_cmds) {
            let target = cmd.clamp(0.0, 1.0) * max_f;
            *thrust += alpha * (target - *thrust);
        }
        let [f_fr, f_rl, f_fl, f_rr] = self.motor_thrusts;
        let total_thrust = f_fr + f_rl + f_fl + f_rr;

        // Body torques from the X-layout geometry. Motor body positions:
        // FR (d, -d), RL (-d, d), FL (d, d), RR (-d, -d); thrust along +z.
        let d = p.arm_offset;
        let tau_x = d * (f_rl + f_fl - f_fr - f_rr);
        let tau_y = d * (f_rl + f_rr - f_fr - f_fl);
        // CCW rotors (FR, RL) react with -z torque; CW rotors (FL, RR) +z.
        let tau_z = p.yaw_torque_coeff * (f_fl + f_rr - f_fr - f_rl);
        let torque = Vec3::new(tau_x, tau_y, tau_z) - self.state.body_rates * p.angular_damping;

        // Rotational dynamics: I w_dot = tau - w x (I w).
        let inertia = Mat3::diagonal(p.inertia);
        let w = self.state.body_rates;
        let coriolis = w.cross(inertia * w);
        let w_dot = inertia.diagonal_inverse() * (torque - coriolis);
        let w_new = w + w_dot * dt;

        // Euler kinematics (Z-Y-X): transform body rates into Euler rates.
        let (roll, pitch, _) = (
            self.state.attitude.x,
            self.state.attitude.y,
            self.state.attitude.z,
        );
        let (sr, cr) = roll.sin_cos();
        let (sp, cp) = pitch.sin_cos();
        // Guard against gimbal lock: clamp cos(pitch) away from zero.
        let cp_safe = if cp.abs() < 1e-3 { 1e-3 * cp.signum().max(1.0) } else { cp };
        let tp = sp / cp_safe;
        let euler_rates = Vec3::new(
            w_new.x + sr * tp * w_new.y + cr * tp * w_new.z,
            cr * w_new.y - sr * w_new.z,
            (sr / cp_safe) * w_new.y + (cr / cp_safe) * w_new.z,
        );
        let mut att = self.state.attitude + euler_rates * dt;
        att.z = pidpiper_math::wrap_angle(att.z);
        att.x = pidpiper_math::wrap_angle(att.x);
        att.y = att.y.clamp(-std::f64::consts::FRAC_PI_2 + 1e-3, std::f64::consts::FRAC_PI_2 - 1e-3);

        // Translational dynamics.
        let rot = Mat3::from_euler(att.x, att.y, att.z);
        let thrust_world = rot * Vec3::new(0.0, 0.0, total_thrust);
        let airspeed = self.state.velocity - wind;
        let drag = -airspeed * p.linear_drag;
        let accel = (thrust_world + drag) / p.mass - Vec3::new(0.0, 0.0, GRAVITY);

        // Semi-implicit Euler.
        let v_new = self.state.velocity + accel * dt;
        let pos_new = self.state.position + v_new * dt;

        self.state.body_rates = w_new;
        self.state.attitude = att;
        self.state.velocity = v_new;
        self.state.position = pos_new;
        self.state.acceleration = accel;

        // Divergence guard: a numerically exploded state counts as a crash.
        if !self.state.is_finite() {
            self.contact = ContactStatus::Crashed;
            return self.contact;
        }

        if self.state.position.z > 0.3 {
            self.airborne_since_takeoff = true;
        }

        // Ground interaction.
        if self.state.position.z <= 0.0 {
            let tilt = self.state.attitude.x.abs().max(self.state.attitude.y.abs());
            let sink = -self.state.velocity.z;
            // Touching down fast — vertically, laterally (skidding into the
            // ground at speed), or tilted — destroys the airframe.
            let hard = sink > p.crash_sink_rate
                || tilt > p.crash_attitude
                || self.state.velocity.norm_xy() > 1.5;
            if hard && self.airborne_since_takeoff {
                self.contact = ContactStatus::Crashed;
            } else {
                self.contact = ContactStatus::Landed;
                // Settle on the ground.
                self.state.position.z = 0.0;
                self.state.velocity = Vec3::ZERO;
                self.state.body_rates = Vec3::ZERO;
                self.state.attitude.x = 0.0;
                self.state.attitude.y = 0.0;
            }
        } else {
            // In-flight structural failure: sustained extreme attitude.
            let tilt = self.state.attitude.x.abs().max(self.state.attitude.y.abs());
            if tilt > 85.0_f64.to_radians() {
                self.contact = ContactStatus::Crashed;
            } else {
                self.contact = ContactStatus::Airborne;
            }
        }
        self.contact
    }

    /// Teleports the vehicle to a new state (used by test fixtures).
    pub fn set_state(&mut self, state: RigidBodyState) {
        self.state = state;
        if state.position.z > 0.3 {
            self.airborne_since_takeoff = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 400.0;

    #[test]
    fn sits_on_ground_with_no_thrust() {
        let mut q = Quadcopter::new(QuadParams::default());
        for _ in 0..400 {
            q.step([0.0; 4], Vec3::ZERO, DT);
        }
        assert_eq!(q.contact(), ContactStatus::Landed);
        assert_eq!(q.state().position.z, 0.0);
    }

    #[test]
    fn hover_command_holds_altitude() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        q.set_state(RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0)));
        // Pre-spin motors to hover thrust to avoid lag transient.
        let hover = p.hover_command();
        for _ in 0..(4.0 / DT) as usize {
            q.step([hover; 4], Vec3::ZERO, DT);
        }
        // Drag-free vertical equilibrium: altitude loss should be small.
        assert!(
            (q.state().position.z - 10.0).abs() < 1.0,
            "altitude drifted to {}",
            q.state().position.z
        );
        assert!(q.state().velocity.norm() < 0.5);
    }

    #[test]
    fn excess_thrust_climbs() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let cmd = p.hover_command() * 1.3;
        for _ in 0..800 {
            q.step([cmd; 4], Vec3::ZERO, DT);
        }
        assert!(q.state().position.z > 1.0);
        assert!(q.state().velocity.z > 0.0);
    }

    #[test]
    fn differential_thrust_rolls() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        q.set_state(RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 20.0)));
        let h = p.hover_command();
        // More thrust on the right (FR, RR), less on the left -> negative
        // tau_x -> negative roll.
        for _ in 0..100 {
            q.step([h + 0.05, h - 0.05, h - 0.05, h + 0.05], Vec3::ZERO, DT);
        }
        assert!(q.state().attitude.x < -0.005, "roll = {}", q.state().attitude.x);
    }

    #[test]
    fn yaw_torque_spins() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        q.set_state(RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 20.0)));
        let h = p.hover_command();
        // Boost CW rotors (FL, RR): positive yaw torque.
        for _ in 0..200 {
            q.step([h - 0.05, h - 0.05, h + 0.05, h + 0.05], Vec3::ZERO, DT);
        }
        assert!(q.state().body_rates.z > 0.01, "r = {}", q.state().body_rates.z);
    }

    #[test]
    fn tilt_produces_horizontal_motion() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 30.0));
        s.attitude = Vec3::new(0.0, 0.15, 0.0); // pitch forward
        q.set_state(s);
        let h = p.hover_command() / 0.15_f64.cos();
        for _ in 0..400 {
            q.step([h; 4], Vec3::ZERO, DT);
        }
        // Positive pitch tips thrust towards +x in this convention.
        assert!(
            q.state().velocity.x.abs() > 0.3,
            "vx = {}",
            q.state().velocity.x
        );
    }

    #[test]
    fn hard_impact_is_crash() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 15.0));
        s.velocity = Vec3::new(0.0, 0.0, -8.0);
        q.set_state(s);
        let mut status = ContactStatus::Airborne;
        for _ in 0..2000 {
            status = q.step([0.0; 4], Vec3::ZERO, DT);
            if status != ContactStatus::Airborne {
                break;
            }
        }
        assert_eq!(status, ContactStatus::Crashed);
        assert!(q.is_crashed());
    }

    #[test]
    fn crash_latches_and_freezes() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0));
        s.velocity = Vec3::new(0.0, 0.0, -9.0);
        q.set_state(s);
        for _ in 0..2000 {
            q.step([0.0; 4], Vec3::ZERO, DT);
        }
        assert!(q.is_crashed());
        let frozen = *q.state();
        q.step([1.0; 4], Vec3::ZERO, DT);
        assert_eq!(*q.state(), frozen, "crashed vehicle must not move");
    }

    #[test]
    fn inflight_extreme_attitude_is_crash() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 50.0));
        s.body_rates = Vec3::new(12.0, 0.0, 0.0); // violent spin
        q.set_state(s);
        let mut crashed = false;
        for _ in 0..400 {
            if q.step([p.hover_command(); 4], Vec3::ZERO, DT).is_crash() {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "a violent spin must register as structural failure");
    }

    #[test]
    fn fast_lateral_ground_contact_is_crash() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        let mut s = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 1.0));
        s.velocity = Vec3::new(4.0, 0.0, -0.5); // skidding descent
        q.set_state(s);
        let mut status = ContactStatus::Airborne;
        for _ in 0..800 {
            status = q.step([0.2; 4], Vec3::ZERO, DT);
            if status != ContactStatus::Airborne {
                break;
            }
        }
        assert_eq!(status, ContactStatus::Crashed, "skidding touchdown destroys the airframe");
    }

    #[test]
    fn wind_pushes_vehicle() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        q.set_state(RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 30.0)));
        let h = p.hover_command();
        let wind = Vec3::new(6.0, 0.0, 0.0);
        for _ in 0..1200 {
            q.step([h; 4], wind, DT);
        }
        assert!(q.state().velocity.x > 0.5, "vx = {}", q.state().velocity.x);
    }

    #[test]
    fn commands_are_clamped() {
        let p = QuadParams::default();
        let mut q = Quadcopter::new(p);
        q.set_state(RigidBodyState::at_rest(Vec3::new(0.0, 0.0, 10.0)));
        for _ in 0..100 {
            q.step([5.0; 4], Vec3::ZERO, DT); // way over 1.0
        }
        let max_total = p.max_motor_thrust() * 4.0;
        let total: f64 = q.motor_thrusts().iter().sum();
        assert!(total <= max_total + 1e-9);
    }

    #[test]
    #[should_panic(expected = "thrust-to-weight")]
    fn underpowered_airframe_rejected() {
        let p = QuadParams {
            thrust_to_weight: 0.9,
            ..QuadParams::default()
        };
        let _ = Quadcopter::new(p);
    }
}
