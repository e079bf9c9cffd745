//! Path models: how long a packet takes between two hosts, and whether
//! it survives the trip.
//!
//! The default [`GeoPathModel`] derives one-way delay from great-circle
//! distance (fiber speed, times a path-stretch factor for the fact that
//! real routes are longer than geodesics), plus a fixed per-direction
//! base delay (last-mile, forwarding) and a random jitter component.
//! Loopback traffic (browser to its local DNS proxy) bypasses the model
//! with a microsecond-scale delay and no loss.

use crate::geo::{Coord, FIBER_SPEED_KM_S};
use crate::net::Ipv4Addr;
use crate::rng::SimRng;
use crate::time::Duration;
use std::cell::Cell;
use std::collections::HashMap;

/// Sampled characteristics of a (src, dst) path for one packet.
#[derive(Debug, Clone, Copy)]
pub struct PathCharacteristics {
    /// Deterministic one-way delay (propagation + base).
    pub propagation: Duration,
    /// Standard deviation of the additive jitter (sampled per packet).
    pub jitter_std: Duration,
    /// Probability that a packet on this path is lost.
    pub loss: f64,
    /// Egress serialization bandwidth at the source, bits per second.
    /// `None` means infinite (no serialization delay).
    pub egress_bps: Option<u64>,
}

impl PathCharacteristics {
    /// Sample the actual one-way delay for a single packet.
    ///
    /// Jitter is zero-mean Gaussian truncated to ±3σ, so the sampled
    /// mean equals `propagation` and the delay stays positive for any
    /// σ below a third of the propagation delay. (An earlier version
    /// used the half-normal `|N(0,σ)|`, which silently inflated the
    /// mean one-way delay by `σ·√(2/π)` above the configured value.)
    pub fn sample_delay(&self, rng: &mut SimRng) -> Duration {
        let sigma = self.jitter_std.as_nanos() as f64;
        let jitter_ns = (rng.normal() * sigma).clamp(-3.0 * sigma, 3.0 * sigma);
        let base_ns = self.propagation.as_nanos() as f64;
        Duration::from_nanos((base_ns + jitter_ns).max(0.0) as u64)
    }
}

/// A model mapping (src, dst) pairs to path characteristics.
pub trait PathModel {
    fn characteristics(&self, src: Ipv4Addr, dst: Ipv4Addr) -> PathCharacteristics;
}

/// Per-address access-path overrides layered on top of a [`PathModel`],
/// describing the link behind one bound address — e.g. the cellular
/// uplink a client lands on after a wifi→cellular rebind
/// ([`Simulator::rebind_host`](crate::Simulator::rebind_host)). Applied
/// to every packet whose source or destination carries the address,
/// after the model's own characteristics and without consuming RNG, so
/// a simulator with no profiles installed stays byte-identical to one
/// predating this layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathProfile {
    /// Extra one-way propagation delay on this access path.
    pub extra_delay: Duration,
    /// Override of the model's per-packet loss probability (`None`
    /// keeps the model's). When both endpoints carry a profile the
    /// lossier one wins.
    pub loss: Option<f64>,
}

impl PathProfile {
    /// A profile that changes nothing.
    pub fn is_neutral(&self) -> bool {
        *self == PathProfile::default()
    }
}

/// Geographic path model parameters.
#[derive(Debug, Clone)]
pub struct GeoPathParams {
    /// Multiplier on the geodesic fiber delay accounting for indirect
    /// routing. Empirically Internet RTTs are ~1.5-2.5x the geodesic
    /// lower bound; we default to 2.0.
    pub path_stretch: f64,
    /// Fixed one-way delay added to every packet (last mile, queuing,
    /// forwarding). Default 3 ms.
    pub base_delay: Duration,
    /// Jitter standard deviation as a fraction of the one-way delay.
    pub jitter_frac: f64,
    /// Per-packet loss probability on wide-area paths.
    pub loss: f64,
    /// Egress bandwidth per host in bits/s (`None` = infinite).
    pub egress_bps: Option<u64>,
    /// Delay for loopback (same-host) packets.
    pub loopback_delay: Duration,
}

impl Default for GeoPathParams {
    fn default() -> Self {
        GeoPathParams {
            path_stretch: 2.0,
            base_delay: Duration::from_millis(3),
            jitter_frac: 0.02,
            loss: 0.002,
            egress_bps: Some(100_000_000), // 100 Mbit/s access links
            loopback_delay: Duration::from_micros(30),
        }
    }
}

/// Most (src, dst) pairs [`GeoPathModel`] memoizes; further pairs are
/// computed on every packet.
const MEMO_PAIRS: usize = 16;

/// One memoized pair.
type MemoSlot = Cell<Option<(Ipv4Addr, Ipv4Addr, PathCharacteristics)>>;

/// Path model based on host coordinates.
#[derive(Debug, Clone)]
pub struct GeoPathModel {
    params: GeoPathParams,
    locations: HashMap<Ipv4Addr, Coord>,
    /// Characteristics of the pairs seen since the last `place`, filled
    /// front to back: a unit routes every packet over a handful of
    /// pairs, so a short scan beats two map lookups and a haversine per
    /// packet.
    memo: [MemoSlot; MEMO_PAIRS],
}

impl GeoPathModel {
    pub fn new(params: GeoPathParams) -> Self {
        GeoPathModel {
            params,
            locations: HashMap::new(),
            memo: Default::default(),
        }
    }

    pub fn with_defaults() -> Self {
        Self::new(GeoPathParams::default())
    }

    /// Register the location of a host. Hosts without a location are
    /// treated as co-located with their peer (base delay only).
    pub fn place(&mut self, ip: Ipv4Addr, at: Coord) {
        self.locations.insert(ip, at);
        self.memo = Default::default();
    }

    pub fn location(&self, ip: Ipv4Addr) -> Option<Coord> {
        self.locations.get(&ip).copied()
    }

    pub fn params(&self) -> &GeoPathParams {
        &self.params
    }

    /// Deterministic one-way delay between two coordinates under these
    /// parameters (without jitter). Exposed for calibration tests.
    pub fn geodesic_delay(&self, a: &Coord, b: &Coord) -> Duration {
        let km = a.distance_km(b) * self.params.path_stretch;
        let secs = km / FIBER_SPEED_KM_S;
        self.params.base_delay + Duration::from_secs_f64(secs)
    }

    /// The characteristics of a pair, computed from the coordinates.
    fn compute(&self, src: Ipv4Addr, dst: Ipv4Addr) -> PathCharacteristics {
        if src.ip_is_loopback_pair(dst) {
            return PathCharacteristics {
                propagation: self.params.loopback_delay,
                jitter_std: Duration::ZERO,
                loss: 0.0,
                egress_bps: None,
            };
        }
        let prop = match (self.locations.get(&src), self.locations.get(&dst)) {
            (Some(a), Some(b)) => self.geodesic_delay(a, b),
            _ => self.params.base_delay,
        };
        PathCharacteristics {
            propagation: prop,
            jitter_std: Duration::from_nanos(
                (prop.as_nanos() as f64 * self.params.jitter_frac) as u64,
            ),
            loss: self.params.loss,
            egress_bps: self.params.egress_bps,
        }
    }
}

impl PathModel for GeoPathModel {
    fn characteristics(&self, src: Ipv4Addr, dst: Ipv4Addr) -> PathCharacteristics {
        for slot in &self.memo {
            match slot.get() {
                Some((s, d, c)) if s == src && d == dst => return c,
                Some(_) => {}
                None => {
                    let c = self.compute(src, dst);
                    slot.set(Some((src, dst, c)));
                    return c;
                }
            }
        }
        self.compute(src, dst)
    }
}

impl Ipv4Addr {
    /// True when a packet between these addresses never leaves the host:
    /// either address is in 127.0.0.0/8 or they are equal.
    pub fn ip_is_loopback_pair(self, other: Ipv4Addr) -> bool {
        self == other || self.octets()[0] == 127 || other.octets()[0] == 127
    }
}

/// A trivial model with one fixed delay for all pairs: used by unit
/// tests of the transport stack where geography is irrelevant.
#[derive(Debug, Clone)]
pub struct FixedPathModel {
    pub one_way: Duration,
    pub loss: f64,
}

impl FixedPathModel {
    pub fn new(one_way: Duration) -> Self {
        FixedPathModel { one_way, loss: 0.0 }
    }

    pub fn with_loss(one_way: Duration, loss: f64) -> Self {
        FixedPathModel { one_way, loss }
    }
}

impl PathModel for FixedPathModel {
    fn characteristics(&self, src: Ipv4Addr, dst: Ipv4Addr) -> PathCharacteristics {
        if src.ip_is_loopback_pair(dst) {
            return PathCharacteristics {
                propagation: Duration::from_micros(30),
                jitter_std: Duration::ZERO,
                loss: 0.0,
                egress_bps: None,
            };
        }
        PathCharacteristics {
            propagation: self.one_way,
            jitter_std: Duration::ZERO,
            loss: self.loss,
            egress_bps: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Continent;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn colocated_hosts_get_base_delay() {
        let model = GeoPathModel::with_defaults();
        let c = model.characteristics(ip(1), ip(2));
        assert_eq!(c.propagation, model.params().base_delay);
    }

    #[test]
    fn distance_increases_delay() {
        let mut model = GeoPathModel::with_defaults();
        model.place(ip(1), Continent::Europe.center());
        model.place(ip(2), Continent::Europe.center());
        model.place(ip(3), Continent::Oceania.center());
        let near = model.characteristics(ip(1), ip(2)).propagation;
        let far = model.characteristics(ip(1), ip(3)).propagation;
        assert!(far > near * 5);
        // EU<->OC one-way should be on the order of 100-250 ms with
        // stretch 2.0 — that yields the several-hundred-ms RTTs the
        // paper reports for its far vantage points.
        assert!(far >= Duration::from_millis(100), "far = {far:?}");
        assert!(far <= Duration::from_millis(250), "far = {far:?}");
    }

    #[test]
    fn loopback_is_fast_and_lossless() {
        let model = GeoPathModel::with_defaults();
        let c = model.characteristics(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST);
        assert_eq!(c.loss, 0.0);
        assert!(c.propagation < Duration::from_millis(1));
    }

    #[test]
    fn jitter_is_bounded_around_propagation() {
        let mut rng = SimRng::new(1);
        let mut m = GeoPathModel::with_defaults();
        m.place(ip(1), Continent::Europe.center());
        m.place(ip(2), Continent::Asia.center());
        let c = m.characteristics(ip(1), ip(2));
        let lo = c.propagation - 3 * c.jitter_std - Duration::from_nanos(1);
        let hi = c.propagation + 3 * c.jitter_std + Duration::from_nanos(1);
        for _ in 0..10_000 {
            let d = c.sample_delay(&mut rng);
            assert!(d >= lo && d <= hi, "delay {d:?} outside ±3σ of {c:?}");
        }
    }

    #[test]
    fn jitter_is_zero_mean() {
        // Calibration pin for the half-normal bug: the sampled mean
        // one-way delay must equal the model's deterministic
        // propagation, not propagation + σ·√(2/π). With σ = 2% of the
        // propagation and n = 50k the standard error of the mean is
        // ~0.009% of propagation, so a 0.2% tolerance is ~20σ wide
        // while the old half-normal bias (+1.6%) would fail by far.
        let mut rng = SimRng::new(2);
        let mut m = GeoPathModel::with_defaults();
        m.place(ip(1), Continent::Europe.center());
        m.place(ip(2), Continent::Asia.center());
        let c = m.characteristics(ip(1), ip(2));
        let n = 50_000;
        let sum_ns: f64 = (0..n)
            .map(|_| c.sample_delay(&mut rng).as_nanos() as f64)
            .sum();
        let mean_ns = sum_ns / n as f64;
        let prop_ns = c.propagation.as_nanos() as f64;
        let rel_err = (mean_ns - prop_ns).abs() / prop_ns;
        assert!(rel_err < 0.002, "relative mean error {rel_err}");
    }

    #[test]
    fn fixed_model_is_fixed() {
        let m = FixedPathModel::new(Duration::from_millis(25));
        let c = m.characteristics(ip(1), ip(2));
        assert_eq!(c.propagation, Duration::from_millis(25));
        assert_eq!(c.loss, 0.0);
    }

    /// Every field, compared exactly.
    fn same(a: PathCharacteristics, b: PathCharacteristics) -> bool {
        a.propagation == b.propagation
            && a.jitter_std == b.jitter_std
            && a.loss.to_bits() == b.loss.to_bits()
            && a.egress_bps == b.egress_bps
    }

    #[test]
    fn memoized_characteristics_equal_fresh_ones() {
        let mut m = GeoPathModel::with_defaults();
        m.place(ip(1), Continent::Europe.center());
        m.place(ip(2), Continent::Asia.center());
        m.place(ip(3), Continent::Oceania.center());
        let addrs = [ip(1), ip(2), ip(3), ip(4), Ipv4Addr::LOCALHOST];
        let check = |m: &GeoPathModel| {
            // Twice over, so the second pass reads the memo.
            for _ in 0..2 {
                for &a in &addrs {
                    for &b in &addrs {
                        assert!(same(m.characteristics(a, b), m.compute(a, b)), "{a} -> {b}");
                    }
                }
            }
        };
        check(&m);
        // Moving an address invalidates what was memoized for it.
        let before = m.characteristics(ip(1), ip(2)).propagation;
        m.place(ip(1), Continent::SouthAmerica.center());
        assert_ne!(m.characteristics(ip(1), ip(2)).propagation, before);
        check(&m);
        let mut fresh = GeoPathModel::with_defaults();
        fresh.place(ip(1), Continent::SouthAmerica.center());
        fresh.place(ip(2), Continent::Asia.center());
        fresh.place(ip(3), Continent::Oceania.center());
        for &a in &addrs {
            for &b in &addrs {
                assert!(same(m.characteristics(a, b), fresh.characteristics(a, b)));
            }
        }
    }

    #[test]
    fn symmetric_characteristics() {
        let mut m = GeoPathModel::with_defaults();
        m.place(ip(1), Continent::Europe.center());
        m.place(ip(2), Continent::Asia.center());
        let ab = m.characteristics(ip(1), ip(2)).propagation;
        let ba = m.characteristics(ip(2), ip(1)).propagation;
        assert_eq!(ab, ba);
    }
}
