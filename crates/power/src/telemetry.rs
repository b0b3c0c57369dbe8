//! Sensor-fault-tolerant power telemetry.
//!
//! The paper's reactive loop (Section III-E) assumes the manager reads the
//! true system power `P(t)` and compares it against capacity `C`. Real
//! telemetry is noisy, delayed and lossy: meters drift, management networks
//! drop samples, BMC registers freeze, and transient spikes alias into the
//! sampling window. This module separates the two concerns:
//!
//! * [`PowerSensor`] — the measurement side. [`FaultySensor`] layers
//!   seeded-deterministic fault processes (Gaussian noise, dropout,
//!   stuck-at-last-value, delivery delay, spike outliers) over the true
//!   power, so simulations can study the reactive loop under realistic
//!   measurement error. Individual adapters ([`GaussianNoise`],
//!   [`Dropout`], [`StuckAtLast`], [`Delayed`], [`Spike`]) compose over any
//!   sensor for targeted experiments.
//! * [`RobustEstimator`] — the estimation side. A median-of-window front
//!   end absorbs isolated spikes, an outlier gate protects the EWMA from
//!   bursts while still tracking genuine level shifts, staleness detection
//!   flags silent sensors, and a configurable confidence margin biases the
//!   reported **upper bound** conservatively so that feeding it to the
//!   [`EmergencyController`](crate::EmergencyController) never lets true
//!   power exceed capacity because of *under*-estimation, while transient
//!   spikes do not trigger false emergencies.
//!
//! Everything here is deterministic given the seed, and every piece of
//! mutable state is exposed (public fields) so a simulation can snapshot
//! and restore the pipeline bit-for-bit across a crash/resume boundary.

use std::collections::VecDeque;

use mpr_core::{SplitMix64, Watts};

/// One delivered power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Measurement timestamp, seconds. Under delivery delay this is older
    /// than the sampling instant.
    pub t_secs: f64,
    /// Measured power (possibly corrupted).
    pub power: Watts,
}

/// A power sensor: polled once per monitoring interval, it may deliver a
/// (possibly corrupted, possibly stale) reading or nothing at all.
pub trait PowerSensor {
    /// Polls the sensor at `now_secs` while the true system power is
    /// `true_power`. `None` models a dropped sample.
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading>;
}

/// The ideal sensor: delivers the true power, always, immediately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrueSensor;

impl PowerSensor for TrueSensor {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        Some(SensorReading {
            t_secs: now_secs,
            power: true_power,
        })
    }
}

/// Adapter: multiplicative zero-mean Gaussian noise on every delivered
/// reading (meter accuracy class / ADC noise).
#[derive(Debug, Clone)]
pub struct GaussianNoise<S> {
    /// The wrapped sensor.
    pub inner: S,
    /// Noise standard deviation as a fraction of the reading.
    pub sigma_frac: f64,
    /// Fault-process RNG.
    pub rng: SplitMix64,
}

impl<S> GaussianNoise<S> {
    /// Wraps `inner`, corrupting readings with the given relative sigma.
    pub fn new(inner: S, sigma_frac: f64, seed: u64) -> Self {
        Self {
            inner,
            sigma_frac,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<S: PowerSensor> PowerSensor for GaussianNoise<S> {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        let r = self.inner.sample(now_secs, true_power)?;
        let factor = (1.0 + self.sigma_frac * self.rng.next_gaussian()).max(0.0);
        Some(SensorReading {
            power: r.power * factor,
            ..r
        })
    }
}

/// Adapter: drops each delivered reading with a fixed probability
/// (management-network sample loss).
#[derive(Debug, Clone)]
pub struct Dropout<S> {
    /// The wrapped sensor.
    pub inner: S,
    /// Per-sample drop probability.
    pub drop_prob: f64,
    /// Fault-process RNG.
    pub rng: SplitMix64,
}

impl<S> Dropout<S> {
    /// Wraps `inner`, dropping samples with probability `drop_prob`.
    pub fn new(inner: S, drop_prob: f64, seed: u64) -> Self {
        Self {
            inner,
            drop_prob,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<S: PowerSensor> PowerSensor for Dropout<S> {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        let r = self.inner.sample(now_secs, true_power)?;
        (self.rng.next_f64() >= self.drop_prob).then_some(r)
    }
}

/// Adapter: with a fixed per-sample probability the sensor freezes and
/// replays its last delivered reading — timestamp and all — for a number
/// of polls (a latched BMC register).
#[derive(Debug, Clone)]
pub struct StuckAtLast<S> {
    /// The wrapped sensor.
    pub inner: S,
    /// Per-sample probability of entering a stuck episode.
    pub stick_prob: f64,
    /// Length of a stuck episode, polls.
    pub stuck_polls: u32,
    /// Polls left in the current episode.
    pub remaining: u32,
    /// Last delivered reading (the value replayed while stuck).
    pub held: Option<SensorReading>,
    /// Fault-process RNG.
    pub rng: SplitMix64,
}

impl<S> StuckAtLast<S> {
    /// Wraps `inner` with the given episode probability and length.
    pub fn new(inner: S, stick_prob: f64, stuck_polls: u32, seed: u64) -> Self {
        Self {
            inner,
            stick_prob,
            stuck_polls,
            remaining: 0,
            held: None,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<S: PowerSensor> PowerSensor for StuckAtLast<S> {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        let fresh = self.inner.sample(now_secs, true_power);
        if self.remaining > 0 {
            self.remaining -= 1;
            return self.held;
        }
        if self.held.is_some() && self.rng.next_f64() < self.stick_prob {
            self.remaining = self.stuck_polls.saturating_sub(1);
            return self.held;
        }
        if fresh.is_some() {
            self.held = fresh;
        }
        fresh
    }
}

/// Adapter: delivers readings a fixed number of polls late (telemetry
/// pipeline latency). Timestamps are preserved, so delivered readings are
/// *stale*, and the first `delay_polls` polls deliver nothing.
#[derive(Debug, Clone)]
pub struct Delayed<S> {
    /// The wrapped sensor.
    pub inner: S,
    /// Delivery delay, polls.
    pub delay_polls: usize,
    /// In-flight readings.
    pub buf: VecDeque<SensorReading>,
}

impl<S> Delayed<S> {
    /// Wraps `inner` with a delivery delay of `delay_polls` polls.
    pub fn new(inner: S, delay_polls: usize) -> Self {
        Self {
            inner,
            delay_polls,
            buf: VecDeque::new(),
        }
    }
}

impl<S: PowerSensor> PowerSensor for Delayed<S> {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        if let Some(r) = self.inner.sample(now_secs, true_power) {
            self.buf.push_back(r);
        }
        if self.buf.len() > self.delay_polls {
            self.buf.pop_front()
        } else {
            None
        }
    }
}

/// Adapter: with a fixed probability a reading is replaced by a spike
/// outlier, `±magnitude_frac` around the true value (EMI glitches, ADC
/// range errors).
#[derive(Debug, Clone)]
pub struct Spike<S> {
    /// The wrapped sensor.
    pub inner: S,
    /// Per-sample spike probability.
    pub spike_prob: f64,
    /// Spike magnitude as a fraction of the reading.
    pub magnitude_frac: f64,
    /// Fault-process RNG.
    pub rng: SplitMix64,
}

impl<S> Spike<S> {
    /// Wraps `inner` with the given spike probability and magnitude.
    pub fn new(inner: S, spike_prob: f64, magnitude_frac: f64, seed: u64) -> Self {
        Self {
            inner,
            spike_prob,
            magnitude_frac,
            rng: SplitMix64::new(seed),
        }
    }
}

impl<S: PowerSensor> PowerSensor for Spike<S> {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        let r = self.inner.sample(now_secs, true_power)?;
        if self.rng.next_f64() < self.spike_prob {
            let sign = if self.rng.next_f64() < 0.5 { 1.0 } else { -1.0 };
            let factor = (1.0 + sign * self.magnitude_frac).max(0.0);
            return Some(SensorReading {
                power: r.power * factor,
                ..r
            });
        }
        Some(r)
    }
}

/// Fault mix for the flat [`FaultySensor`] used by the simulator. All-zero
/// rates (the default) make the sensor ideal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaultConfig {
    /// Gaussian noise sigma as a fraction of the reading.
    pub noise_sigma_frac: f64,
    /// Per-sample drop probability.
    pub dropout_prob: f64,
    /// Per-sample probability of a stuck episode.
    pub stuck_prob: f64,
    /// Stuck episode length, polls.
    pub stuck_polls: u32,
    /// Delivery delay, polls (readings arrive stale).
    pub delay_polls: usize,
    /// Per-sample spike probability.
    pub spike_prob: f64,
    /// Spike magnitude as a fraction of the reading.
    pub spike_magnitude_frac: f64,
}

impl Default for SensorFaultConfig {
    fn default() -> Self {
        Self {
            noise_sigma_frac: 0.0,
            dropout_prob: 0.0,
            stuck_prob: 0.0,
            stuck_polls: 5,
            delay_polls: 0,
            spike_prob: 0.0,
            spike_magnitude_frac: 0.5,
        }
    }
}

impl SensorFaultConfig {
    /// `true` when at least one fault process is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.noise_sigma_frac > 0.0
            || self.dropout_prob > 0.0
            || self.stuck_prob > 0.0
            || self.delay_polls > 0
            || self.spike_prob > 0.0
    }
}

/// A sensor running the full fault mix of [`SensorFaultConfig`] with flat,
/// directly snapshottable state (unlike a tower of generic adapters).
///
/// Fault order per poll: delivery delay → stuck register → dropout →
/// Gaussian noise → spike. The RNG draw sequence is a pure function of the
/// seed and the poll/branch history, so runs reproduce bit-for-bit and a
/// restored snapshot continues the exact stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultySensor {
    /// The fault mix.
    pub config: SensorFaultConfig,
    /// Fault-process RNG.
    pub rng: SplitMix64,
    /// In-flight readings (delivery delay).
    pub delay_buf: VecDeque<SensorReading>,
    /// Polls left in the current stuck episode.
    pub stuck_remaining: u32,
    /// Last delivered reading (replayed while stuck).
    pub held: Option<SensorReading>,
}

impl FaultySensor {
    /// Creates a sensor with the given fault mix and seed.
    #[must_use]
    pub fn new(config: SensorFaultConfig, seed: u64) -> Self {
        Self {
            config,
            rng: SplitMix64::new(seed),
            delay_buf: VecDeque::new(),
            stuck_remaining: 0,
            held: None,
        }
    }
}

impl PowerSensor for FaultySensor {
    fn sample(&mut self, now_secs: f64, true_power: Watts) -> Option<SensorReading> {
        let cfg = self.config;
        let mut reading = SensorReading {
            t_secs: now_secs,
            power: true_power,
        };
        if cfg.delay_polls > 0 {
            self.delay_buf.push_back(reading);
            if self.delay_buf.len() <= cfg.delay_polls {
                return None;
            }
            match self.delay_buf.pop_front() {
                Some(delayed) => reading = delayed,
                None => return None,
            }
        }
        if self.stuck_remaining > 0 {
            self.stuck_remaining -= 1;
            return self.held;
        }
        if cfg.stuck_prob > 0.0 && self.held.is_some() && self.rng.next_f64() < cfg.stuck_prob {
            self.stuck_remaining = cfg.stuck_polls.saturating_sub(1);
            return self.held;
        }
        if cfg.dropout_prob > 0.0 && self.rng.next_f64() < cfg.dropout_prob {
            return None;
        }
        if cfg.noise_sigma_frac > 0.0 {
            let factor = (1.0 + cfg.noise_sigma_frac * self.rng.next_gaussian()).max(0.0);
            reading.power = reading.power * factor;
        }
        if cfg.spike_prob > 0.0 && self.rng.next_f64() < cfg.spike_prob {
            let sign = if self.rng.next_f64() < 0.5 { 1.0 } else { -1.0 };
            let factor = (1.0 + sign * cfg.spike_magnitude_frac).max(0.0);
            reading.power = reading.power * factor;
        }
        self.held = Some(reading);
        Some(reading)
    }
}

/// Tuning of the [`RobustEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Median window length, samples.
    pub window: usize,
    /// EWMA smoothing factor in `(0, 1]` (1 = no smoothing).
    pub ewma_alpha: f64,
    /// A delivered sample deviating from the EWMA by more than this
    /// fraction is rejected as an outlier — unless the deviation persists
    /// (see [`outlier_streak`](Self::outlier_streak)).
    pub outlier_frac: f64,
    /// Consecutive rejections after which the deviation is accepted as a
    /// genuine level shift (a step change must never be gated forever).
    pub outlier_streak: usize,
    /// The estimate counts as stale once the newest underlying measurement
    /// is older than this, seconds.
    pub stale_after_secs: f64,
    /// Confidence margin: the reported upper bound is
    /// `estimate · (1 + margin_frac)`.
    pub margin_frac: f64,
    /// Extra margin applied while stale (the estimate may lag a rising
    /// load).
    pub stale_margin_frac: f64,
}

impl Default for EstimatorConfig {
    /// Defaults tuned for 60 s polls: 5-sample median, gentle EWMA, 15 %
    /// outlier gate releasing after 3 polls, 3-poll staleness, 1 % margin
    /// (+2 % while stale).
    fn default() -> Self {
        Self {
            window: 5,
            ewma_alpha: 0.4,
            outlier_frac: 0.15,
            outlier_streak: 3,
            stale_after_secs: 180.0,
            margin_frac: 0.01,
            stale_margin_frac: 0.02,
        }
    }
}

impl EstimatorConfig {
    /// A pass-through configuration: no median window, no smoothing, no
    /// outlier gate, no margin, never stale. Feeding a faulty sensor
    /// through a pass-through estimator shows what the raw telemetry would
    /// do to the controller — the ablation baseline.
    #[must_use]
    pub fn passthrough() -> Self {
        Self {
            window: 1,
            ewma_alpha: 1.0,
            outlier_frac: f64::INFINITY,
            outlier_streak: usize::MAX,
            stale_after_secs: f64::INFINITY,
            margin_frac: 0.0,
            stale_margin_frac: 0.0,
        }
    }
}

/// Health counters of a telemetry pipeline, accumulated by the estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryHealth {
    /// Samples the sensor delivered.
    pub samples_delivered: usize,
    /// Polls that delivered nothing.
    pub samples_missed: usize,
    /// Delivered samples rejected by the outlier gate.
    pub outliers_rejected: usize,
    /// Polls at which the estimate was stale.
    pub stale_polls: usize,
}

/// The estimator's output for one poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Best estimate of the current power.
    pub power: Watts,
    /// Conservative upper confidence bound — feed **this** to the
    /// emergency controller so under-estimation cannot hide an overload.
    pub upper_bound: Watts,
    /// Age of the newest underlying measurement, seconds.
    pub age_secs: f64,
    /// `true` when the newest measurement is older than the staleness
    /// threshold (or no measurement ever arrived).
    pub stale: bool,
}

/// Median-of-window + outlier-gated EWMA power estimator.
///
/// ```
/// use mpr_core::Watts;
/// use mpr_power::telemetry::{
///     EstimatorConfig, PowerSensor, RobustEstimator, TrueSensor,
/// };
///
/// let mut sensor = TrueSensor;
/// let mut est = RobustEstimator::new(EstimatorConfig::default());
/// for poll in 0..10 {
///     let t = poll as f64 * 60.0;
///     let r = sensor.sample(t, Watts::new(1000.0));
///     let e = est.observe(t, r);
///     assert!(e.upper_bound >= e.power);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RobustEstimator {
    /// Tuning.
    pub config: EstimatorConfig,
    /// Accepted samples, newest last (bounded by `config.window`).
    pub window: VecDeque<f64>,
    /// Smoothed estimate.
    pub ewma: Option<f64>,
    /// Consecutive outlier rejections.
    pub reject_streak: usize,
    /// Timestamp of the newest underlying measurement.
    pub last_reading_secs: Option<f64>,
    /// Health counters.
    pub health: TelemetryHealth,
}

impl RobustEstimator {
    /// Creates an estimator with the given tuning.
    #[must_use]
    pub fn new(config: EstimatorConfig) -> Self {
        Self {
            config,
            window: VecDeque::new(),
            ewma: None,
            reject_streak: 0,
            last_reading_secs: None,
            health: TelemetryHealth::default(),
        }
    }

    /// Folds one poll result in and returns the current estimate.
    pub fn observe(&mut self, now_secs: f64, reading: Option<SensorReading>) -> PowerEstimate {
        match reading {
            Some(r) => {
                self.health.samples_delivered += 1;
                self.last_reading_secs = Some(
                    self.last_reading_secs
                        .map_or(r.t_secs, |prev| prev.max(r.t_secs)),
                );
                self.accept_or_reject(r.power.get());
            }
            None => self.health.samples_missed += 1,
        }
        if let Some(med) = self.median() {
            let alpha = self.config.ewma_alpha.clamp(0.0, 1.0);
            self.ewma = Some(match self.ewma {
                Some(prev) => alpha * med + (1.0 - alpha) * prev,
                None => med,
            });
        }
        let estimate = self.ewma.unwrap_or(0.0);
        let age_secs = self
            .last_reading_secs
            .map_or(f64::INFINITY, |last| (now_secs - last).max(0.0));
        let stale = age_secs > self.config.stale_after_secs;
        if stale {
            self.health.stale_polls += 1;
        }
        let margin = self.config.margin_frac
            + if stale {
                self.config.stale_margin_frac
            } else {
                0.0
            };
        PowerEstimate {
            power: Watts::new(estimate),
            upper_bound: Watts::new(estimate * (1.0 + margin)),
            age_secs,
            stale,
        }
    }

    /// Gates one delivered value against the EWMA before it may enter the
    /// median window. A deviation persisting for `outlier_streak`
    /// consecutive polls is treated as a genuine regime change: the stale
    /// window is flushed and the EWMA re-seeds at the new level, so step
    /// changes are only delayed by the streak, never suppressed.
    fn accept_or_reject(&mut self, value: f64) {
        let gated = match self.ewma {
            Some(e) => {
                let scale = e.abs().max(1.0);
                (value - e).abs() > self.config.outlier_frac * scale
            }
            None => false,
        };
        if gated {
            if self.reject_streak.saturating_add(1) < self.config.outlier_streak.max(1) {
                self.reject_streak += 1;
                self.health.outliers_rejected += 1;
                return;
            }
            // Confirmed regime change: trust the new level outright.
            self.window.clear();
            self.ewma = None;
        }
        self.reject_streak = 0;
        self.window.push_back(value);
        while self.window.len() > self.config.window.max(1) {
            self.window.pop_front();
        }
    }

    fn median(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let mid = n / 2;
        if n % 2 == 1 {
            v.get(mid).copied()
        } else {
            match (v.get(mid.wrapping_sub(1)), v.get(mid)) {
                (Some(a), Some(b)) => Some(0.5 * (a + b)),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmergencyAction, EmergencyConfig, EmergencyController};

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(7);
        let mean: f64 = (0..4000).map(|_| r.next_f64()).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        let gmean: f64 = (0..4000).map(|_| r.next_gaussian()).sum::<f64>() / 4000.0;
        assert!(gmean.abs() < 0.1, "gaussian mean {gmean}");
    }

    #[test]
    fn true_sensor_is_ideal() {
        let mut s = TrueSensor;
        let r = s.sample(60.0, Watts::new(500.0)).unwrap();
        assert_eq!(r.t_secs, 60.0);
        assert_eq!(r.power, Watts::new(500.0));
    }

    #[test]
    fn gaussian_noise_is_zero_mean() {
        let mut s = GaussianNoise::new(TrueSensor, 0.05, 11);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|i| s.sample(i as f64, Watts::new(1000.0)).unwrap().power.get())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 1000.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn dropout_rate_matches_probability() {
        let mut s = Dropout::new(TrueSensor, 0.3, 5);
        let n = 4000;
        let delivered = (0..n)
            .filter(|&i| s.sample(f64::from(i), Watts::new(100.0)).is_some())
            .count();
        let rate = 1.0 - delivered as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn stuck_sensor_replays_last_reading() {
        let mut s = StuckAtLast::new(TrueSensor, 1.0, 3, 1);
        let first = s.sample(0.0, Watts::new(100.0)).unwrap();
        assert_eq!(first.power, Watts::new(100.0));
        // Every subsequent episode replays the held reading, timestamp
        // included.
        for i in 1..=3 {
            let r = s
                .sample(i as f64 * 60.0, Watts::new(100.0 + i as f64))
                .unwrap();
            assert_eq!(r, first, "poll {i} must replay the held reading");
        }
    }

    #[test]
    fn delayed_sensor_preserves_timestamps() {
        let mut s = Delayed::new(TrueSensor, 2);
        assert!(s.sample(0.0, Watts::new(10.0)).is_none());
        assert!(s.sample(60.0, Watts::new(20.0)).is_none());
        let r = s.sample(120.0, Watts::new(30.0)).unwrap();
        assert_eq!(r.t_secs, 0.0);
        assert_eq!(r.power, Watts::new(10.0));
    }

    #[test]
    fn spike_sensor_spikes_at_given_rate() {
        let mut s = Spike::new(TrueSensor, 0.2, 0.5, 3);
        let n = 4000;
        let spiked = (0..n)
            .filter(|&i| {
                let p = s
                    .sample(f64::from(i), Watts::new(100.0))
                    .unwrap()
                    .power
                    .get();
                (p - 100.0).abs() > 1.0
            })
            .count();
        let rate = spiked as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.04, "spike rate {rate}");
    }

    #[test]
    fn faulty_sensor_default_is_ideal() {
        let mut s = FaultySensor::new(SensorFaultConfig::default(), 9);
        assert!(!s.config.is_active());
        for i in 0..10 {
            let t = f64::from(i) * 60.0;
            let r = s.sample(t, Watts::new(123.0)).unwrap();
            assert_eq!(r.t_secs, t);
            assert_eq!(r.power, Watts::new(123.0));
        }
    }

    #[test]
    fn faulty_sensor_is_seed_deterministic() {
        let cfg = SensorFaultConfig {
            noise_sigma_frac: 0.05,
            dropout_prob: 0.2,
            stuck_prob: 0.05,
            delay_polls: 1,
            spike_prob: 0.05,
            ..SensorFaultConfig::default()
        };
        assert!(cfg.is_active());
        let mut a = FaultySensor::new(cfg, 77);
        let mut b = FaultySensor::new(cfg, 77);
        for i in 0..500 {
            let t = f64::from(i) * 60.0;
            let p = Watts::new(1000.0 + f64::from(i));
            assert_eq!(a.sample(t, p), b.sample(t, p));
        }
    }

    #[test]
    fn faulty_sensor_snapshot_resumes_identically() {
        let cfg = SensorFaultConfig {
            noise_sigma_frac: 0.1,
            dropout_prob: 0.3,
            stuck_prob: 0.1,
            delay_polls: 2,
            spike_prob: 0.1,
            ..SensorFaultConfig::default()
        };
        let mut reference = FaultySensor::new(cfg, 5);
        for i in 0..100 {
            reference.sample(f64::from(i) * 60.0, Watts::new(900.0));
        }
        // Cloning captures the full state — the clone must continue the
        // exact stream (the checkpoint restores exactly these fields).
        let mut resumed = reference.clone();
        for i in 100..200 {
            let t = f64::from(i) * 60.0;
            assert_eq!(
                reference.sample(t, Watts::new(950.0)),
                resumed.sample(t, Watts::new(950.0))
            );
        }
    }

    #[test]
    fn estimator_tracks_clean_signal() {
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        let mut sensor = TrueSensor;
        let mut last = est.observe(0.0, sensor.sample(0.0, Watts::new(1000.0)));
        for i in 1..20 {
            let t = f64::from(i) * 60.0;
            last = est.observe(t, sensor.sample(t, Watts::new(1000.0)));
        }
        assert!((last.power.get() - 1000.0).abs() < 1e-6);
        assert!(!last.stale);
        assert_eq!(last.age_secs, 0.0);
        // The upper bound carries exactly the configured margin.
        assert!((last.upper_bound.get() - 1010.0).abs() < 1e-6);
        assert_eq!(est.health.samples_missed, 0);
    }

    #[test]
    fn estimator_rejects_isolated_spikes() {
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        for i in 0..10 {
            let t = f64::from(i) * 60.0;
            est.observe(
                t,
                Some(SensorReading {
                    t_secs: t,
                    power: Watts::new(1000.0),
                }),
            );
        }
        // One +60 % spike: gated, estimate unmoved.
        let e = est.observe(
            600.0,
            Some(SensorReading {
                t_secs: 600.0,
                power: Watts::new(1600.0),
            }),
        );
        assert!((e.power.get() - 1000.0).abs() < 1e-6, "estimate {e:?}");
        assert_eq!(est.health.outliers_rejected, 1);
    }

    #[test]
    fn estimator_accepts_persistent_level_shift() {
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        for i in 0..10 {
            let t = f64::from(i) * 60.0;
            est.observe(
                t,
                Some(SensorReading {
                    t_secs: t,
                    power: Watts::new(1000.0),
                }),
            );
        }
        // A genuine step to 1600 W: gated for `outlier_streak − 1` polls,
        // then tracked.
        let mut last = None;
        for i in 10..25 {
            let t = f64::from(i) * 60.0;
            last = Some(est.observe(
                t,
                Some(SensorReading {
                    t_secs: t,
                    power: Watts::new(1600.0),
                }),
            ));
        }
        let e = last.unwrap();
        assert!(
            (e.power.get() - 1600.0).abs() < 10.0,
            "estimate must reach the new level, got {e:?}"
        );
    }

    #[test]
    fn estimator_flags_staleness_and_widens_margin() {
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        est.observe(
            0.0,
            Some(SensorReading {
                t_secs: 0.0,
                power: Watts::new(1000.0),
            }),
        );
        // Sensor silent for 10 polls: estimate holds, staleness flips on
        // once the age threshold passes and the margin widens.
        let mut e = est.observe(60.0, None);
        assert!(!e.stale);
        for i in 2..=10 {
            e = est.observe(f64::from(i) * 60.0, None);
        }
        assert!(e.stale);
        assert_eq!(e.age_secs, 600.0);
        assert!((e.power.get() - 1000.0).abs() < 1e-6);
        assert!(
            (e.upper_bound.get() - 1030.0).abs() < 1e-6,
            "1% + 2% stale margin"
        );
        assert!(est.health.stale_polls > 0);
        assert_eq!(est.health.samples_missed, 10);
    }

    #[test]
    fn estimator_with_no_readings_reports_zero_and_stale() {
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        let e = est.observe(0.0, None);
        assert_eq!(e.power, Watts::ZERO);
        assert_eq!(e.upper_bound, Watts::ZERO);
        assert!(e.stale);
        assert!(e.age_secs.is_infinite());
    }

    #[test]
    fn passthrough_config_forwards_raw_readings() {
        let mut est = RobustEstimator::new(EstimatorConfig::passthrough());
        for (i, p) in [1000.0, 1600.0, 400.0, 1000.0].iter().enumerate() {
            let t = i as f64 * 60.0;
            let e = est.observe(
                t,
                Some(SensorReading {
                    t_secs: t,
                    power: Watts::new(*p),
                }),
            );
            assert!((e.power.get() - p).abs() < 1e-9, "raw value forwarded");
            assert_eq!(e.power, e.upper_bound, "no margin");
            assert!(!e.stale);
        }
        assert_eq!(est.health.outliers_rejected, 0);
    }

    /// End-to-end: a spiky sensor drives the emergency controller. Raw
    /// telemetry declares false emergencies; the robust estimator does not.
    #[test]
    fn robust_estimator_suppresses_false_emergencies() {
        let true_power = Watts::new(950.0); // below the 1000 W capacity
        let spiky = SensorFaultConfig {
            spike_prob: 0.1,
            spike_magnitude_frac: 0.5,
            ..SensorFaultConfig::default()
        };
        let run = |est_cfg: EstimatorConfig| -> usize {
            let mut sensor = FaultySensor::new(spiky, 21);
            let mut est = RobustEstimator::new(est_cfg);
            let mut ctl = EmergencyController::new(EmergencyConfig::paper(Watts::new(1000.0)));
            // Commissioning: a few clean polls seed the estimator before
            // the faulty feed takes over.
            for i in 0..5 {
                let t = f64::from(i) * 60.0;
                est.observe(
                    t,
                    Some(SensorReading {
                        t_secs: t,
                        power: true_power,
                    }),
                );
            }
            let mut declares = 0;
            for i in 5..200 {
                let t = f64::from(i) * 60.0;
                let e = est.observe(t, sensor.sample(t, true_power));
                if matches!(ctl.step(t, e.upper_bound), EmergencyAction::Declare { .. }) {
                    declares += 1;
                }
            }
            declares
        };
        assert!(
            run(EstimatorConfig::passthrough()) > 0,
            "raw spikes must cross capacity"
        );
        assert_eq!(
            run(EstimatorConfig::default()),
            0,
            "robust estimator must suppress transient spikes"
        );
    }

    /// End-to-end: a sustained true overload is declared despite dropout,
    /// and the conservative upper bound never under-reports a settled
    /// signal.
    #[test]
    fn sustained_overload_is_declared_through_dropout() {
        let lossy = SensorFaultConfig {
            dropout_prob: 0.4,
            ..SensorFaultConfig::default()
        };
        let mut sensor = FaultySensor::new(lossy, 13);
        let mut est = RobustEstimator::new(EstimatorConfig::default());
        let mut ctl = EmergencyController::new(EmergencyConfig::paper(Watts::new(1000.0)));
        let mut declared = false;
        for i in 0..50 {
            let t = f64::from(i) * 60.0;
            let e = est.observe(t, sensor.sample(t, Watts::new(1100.0)));
            if matches!(ctl.step(t, e.upper_bound), EmergencyAction::Declare { .. }) {
                declared = true;
                // Conservative: the declared target covers at least the
                // true excess over the buffered capacity.
                assert!(
                    ctl.active_target().get() >= 1100.0 - 990.0 - 1e-9,
                    "target {} must cover the true excess",
                    ctl.active_target()
                );
                break;
            }
        }
        assert!(declared, "a 10% sustained overload must be declared");
    }
}
