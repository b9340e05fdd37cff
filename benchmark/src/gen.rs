//! Seeded input generation: a small PRNG, shuffles, and the steady-state
//! admit/release generator of the serve workload.
//!
//! Every generator is a pure function of its seed and of the replies it
//! observes, so the same seed and the same replies give the same
//! request lines.

/// SplitMix64: tiny, fast, and good enough to draw workload inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for sub-generator `k` of `seed`.
    pub fn derive(seed: u64, k: u64) -> Rng {
        let mut base = Rng::new(seed);
        let mix = base.next_u64() ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(mix)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// What a generated request was, so its reply can be folded back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sent {
    Admit(String),
    Release(String),
}

/// How the server answered one request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ADMIT`; `integrated` when the certificate came from that tier.
    Admitted {
        integrated: bool,
    },
    /// `REJECT`: a correct answer, state unchanged.
    Rejected,
    Released,
    /// `RELEASE …: refused`: a correct answer, state unchanged.
    ReleaseRefused,
    /// `QUERY <k> admitted <names>…`.
    Queried(Vec<String>),
    /// `ERR`, `SHED`, end of stream, no reply, or anything unparsable.
    Failed(String),
}

impl Reply {
    pub fn parse(line: &str) -> Reply {
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("ADMIT") => Reply::Admitted {
                integrated: line.contains("(tier integrated"),
            },
            Some("REJECT") => Reply::Rejected,
            Some("RELEASE") if line.contains(": refused") => Reply::ReleaseRefused,
            Some("RELEASE") => Reply::Released,
            Some("QUERY") => Reply::Queried(toks.skip(2).map(str::to_string).collect()),
            _ => Reply::Failed(line.trim().to_string()),
        }
    }

    pub fn is_failure(&self) -> bool {
        matches!(self, Reply::Failed(_))
    }

    /// A reply acknowledging a committed (journaled) write.
    pub fn committed(&self) -> bool {
        matches!(self, Reply::Admitted { .. } | Reply::Released)
    }
}

/// Shape of one steady-state admit/release stream.
#[derive(Clone, Copy, Debug)]
pub struct ChurnShape {
    /// Server names are `<server_prefix><index>`; routes are contiguous
    /// runs of `servers` servers.
    pub server_prefix: &'static str,
    pub servers: u64,
    /// Route lengths are drawn from `min_hops..=max_hops`.
    pub min_hops: u64,
    pub max_hops: u64,
    /// Live-set band: admit below `low`, release at `high` or above.
    pub low: usize,
    pub high: usize,
    /// Sustained rates are `rho_num / rho_den` with `rho_num` drawn
    /// from `1..=rho_max`.
    pub rho_max: u64,
    pub rho_den: u64,
    /// Bursts drawn from `1..=sigma_max`, over `sigma_den`.
    pub sigma_max: u64,
    pub sigma_den: u64,
    /// Deadlines are `per_hop × hops` with `per_hop` drawn from
    /// `deadline_lo..=deadline_hi`, over `deadline_den`.
    pub deadline_lo: u64,
    pub deadline_hi: u64,
    pub deadline_den: u64,
    /// One admit in `tight_every` asks for a deadline of 1/2, below any
    /// bound a burst of at least 1/2 can get, so it is rejected whatever
    /// the live set (0 = never).
    pub tight_every: u64,
}

/// A closed-loop churn client: holds the connections it believes are
/// admitted within a band, so the live set (and with it the cost of
/// certifying one request) stays steady over a run.
#[derive(Clone, Debug)]
pub struct Churn {
    rng: Rng,
    shape: ChurnShape,
    prefix: String,
    next_id: u64,
    live: Vec<String>,
}

impl Churn {
    pub fn new(seed: u64, stream: u64, prefix: &str, shape: ChurnShape) -> Churn {
        Churn {
            rng: Rng::derive(seed, stream),
            shape,
            prefix: prefix.to_string(),
            next_id: 0,
            live: Vec::new(),
        }
    }

    pub fn live(&self) -> &[String] {
        &self.live
    }

    /// The next request line and what it was.
    pub fn next(&mut self) -> (String, Sent) {
        let n = self.live.len();
        let admit = if n < self.shape.low {
            true
        } else if n >= self.shape.high {
            false
        } else {
            self.rng.chance(1, 2)
        };
        if admit {
            let s = &self.shape;
            let name = format!("{}{}", self.prefix, self.next_id);
            self.next_id += 1;
            let hops = self.rng.range(s.min_hops, s.max_hops.min(s.servers));
            let start = self.rng.below(s.servers - hops + 1);
            let route: Vec<String> = (start..start + hops)
                .map(|j| format!("{}{j}", s.server_prefix))
                .collect();
            let sigma = self.rng.range(1, s.sigma_max);
            let rho = self.rng.range(1, s.rho_max);
            let per_hop = self.rng.range(s.deadline_lo, s.deadline_hi);
            let tight = s.tight_every > 0 && self.rng.below(s.tight_every) == 0;
            let deadline = if tight {
                "1/2".to_string()
            } else {
                format!("{}/{}", per_hop * hops, s.deadline_den)
            };
            let line = format!(
                "admit {name} route {} bucket {sigma}/{} {rho}/{} deadline {deadline}",
                route.join(" "),
                s.sigma_den,
                s.rho_den,
            );
            (line, Sent::Admit(name))
        } else {
            let idx = self.rng.below(n as u64) as usize;
            let name = self.live[idx].clone();
            (format!("release {name}"), Sent::Release(name))
        }
    }

    /// Fold the server's answer to `sent` into the live set.
    pub fn observe(&mut self, sent: &Sent, reply: &Reply) {
        match (sent, reply) {
            (Sent::Admit(name), Reply::Admitted { .. }) => self.live.push(name.clone()),
            (Sent::Release(name), Reply::Released) => self.live.retain(|l| l != name),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ChurnShape = ChurnShape {
        server_prefix: "hop",
        servers: 16,
        min_hops: 1,
        max_hops: 6,
        low: 4,
        high: 8,
        rho_max: 3,
        rho_den: 200,
        sigma_max: 2,
        sigma_den: 1,
        deadline_lo: 2,
        deadline_hi: 9,
        deadline_den: 1,
        tight_every: 4,
    };

    /// Drive a generator against a fake server that admits every third
    /// request, returning the request lines.
    fn drive(seed: u64, stream: u64) -> Vec<String> {
        let mut g = Churn::new(seed, stream, "c", SHAPE);
        let mut lines = Vec::new();
        for i in 0..200 {
            let (line, sent) = g.next();
            let reply = match sent {
                Sent::Admit(_) if i % 3 == 0 => Reply::Rejected,
                Sent::Admit(_) => Reply::Admitted { integrated: true },
                Sent::Release(_) => Reply::Released,
            };
            g.observe(&sent, &reply);
            assert!(g.live().len() <= SHAPE.high);
            lines.push(line);
        }
        lines
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(drive(7, 0), drive(7, 0));
        assert_ne!(drive(7, 0), drive(8, 0));
        assert_ne!(drive(7, 0), drive(7, 1));
    }

    #[test]
    fn live_set_stays_in_band() {
        let mut g = Churn::new(3, 0, "c", SHAPE);
        for _ in 0..500 {
            let (_, sent) = g.next();
            let reply = match sent {
                Sent::Admit(_) => Reply::Admitted { integrated: false },
                _ => Reply::Released,
            };
            g.observe(&sent, &reply);
        }
        let n = g.live().len();
        assert!((SHAPE.low..=SHAPE.high).contains(&n), "live set {n}");
    }

    #[test]
    fn routes_stay_inside_the_network() {
        let mut g = Churn::new(11, 2, "c", SHAPE);
        for _ in 0..300 {
            let (line, sent) = g.next();
            if let Sent::Admit(_) = sent {
                let hops: Vec<u64> = line
                    .split_whitespace()
                    .filter_map(|t| t.strip_prefix("hop").and_then(|n| n.parse().ok()))
                    .collect();
                assert!(!hops.is_empty() && hops.len() as u64 <= SHAPE.max_hops);
                assert!(hops.iter().all(|&h| h < SHAPE.servers));
                assert!(hops.windows(2).all(|w| w[1] == w[0] + 1));
            }
            g.observe(&sent, &Reply::Admitted { integrated: true });
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(6).shuffle(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn replies_are_classified() {
        assert_eq!(
            Reply::parse("ADMIT   x: certified, bound 1 <= deadline 2 (tier integrated)"),
            Reply::Admitted { integrated: true }
        );
        assert_eq!(
            Reply::parse("ADMIT   x: certified, bound 1 <= deadline 2 (tier decomposed)"),
            Reply::Admitted { integrated: false }
        );
        assert_eq!(Reply::parse("REJECT  x: too slow"), Reply::Rejected);
        assert!(!Reply::parse("REJECT  x: too slow").is_failure());
        assert_eq!(
            Reply::parse("RELEASE x: ok, remaining set re-certified"),
            Reply::Released
        );
        assert_eq!(
            Reply::parse("RELEASE x: refused: unknown"),
            Reply::ReleaseRefused
        );
        assert_eq!(
            Reply::parse("QUERY   2 admitted a b"),
            Reply::Queried(vec!["a".into(), "b".into()])
        );
        assert!(Reply::parse("ERR     bad line").is_failure());
        assert!(Reply::parse("SHED    x: full; retry after 3 tick(s)").is_failure());
        assert!(Reply::parse("").is_failure());
    }
}
