//! Adversarial node behaviours (Sec. IV-D).
//!
//! The paper analyses 2LDAG against majority, Sybil, man-in-the-middle, DoS,
//! and selfish attacks. In the simulator an attack is a per-node [`Behavior`]
//! that perturbs the responder/generation code paths; the network layer
//! applies it when other nodes interact with the attacker.

use std::fmt;

/// How a node behaves when participating in the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Never answers `REQ_CHILD` or block fetches (models crashed, jammed,
    /// or packet-dropping nodes; the validator sees a timeout).
    Unresponsive,
    /// Answers with a header whose digest entry for the requested parent is
    /// corrupted, so the validator's `GetDigest` consistency check fails
    /// (Algorithm 3, line 21).
    CorruptReply,
    /// Tampers with its own stored block bodies after generation. Serving a
    /// tampered block fails the Merkle-root check; its headers remain
    /// internally consistent so only full-block fetches detect it.
    CorruptStore,
    /// Generates blocks normally but refuses to serve replies — the selfish
    /// node of Sec. IV-D.6 that the blacklist punishes.
    Selfish,
    /// Replies to `REQ_CHILD` claiming a forged identity (a Sybil persona).
    /// Validators detect it because the signature does not verify under the
    /// registered key of the claimed node id.
    SybilImpersonator {
        /// The honest node id the attacker claims to be.
        claimed: u32,
    },
    /// Attempts to flood neighbors with digests faster than the difficulty
    /// puzzle allows (`rate_multiplier` digests per slot). Receivers detect
    /// the implausible rate and ban the peer (Sec. IV-D.5).
    Flooder {
        /// Digest messages attempted per slot.
        rate_multiplier: u32,
    },
    /// Generates its canonical block but *additionally* mints a second,
    /// conflicting block for the same slot and gossips its digest — two
    /// distinct histories offered to different neighbors. Honest receivers
    /// detect the conflicting `SlotDigest` pair and discard both until a
    /// direct pull resolves the slot.
    Equivocate,
    /// Gossips corrupted `SlotDigest`s (valid-looking but wrong bytes) while
    /// keeping its local chain canonical, so forensics can name the liar by
    /// pulling the slot directly.
    DigestLie,
    /// Grows a parasite side-chain: alongside the canonical chain it keeps
    /// re-advertising conflicting digests for stale slots, trying to get
    /// honest nodes to reference abandoned parents (Cullen et al.,
    /// arXiv:1904.00996).
    Parasite,
    /// Flaps membership as an attack: goes silent until evicted, then spams
    /// `JoinAnnounce` rejoin attempts to churn the roster without ever
    /// contributing blocks.
    Flapper,
}

impl Behavior {
    /// Whether the node refuses to respond at all.
    pub(crate) fn is_silent(&self) -> bool {
        matches!(
            self,
            Behavior::Unresponsive | Behavior::Selfish | Behavior::Flapper
        )
    }

    /// Whether the node is malicious in the paper's sense (counts toward the
    /// malicious-node budget `γ` in the experiments).
    pub fn is_malicious(&self) -> bool {
        !matches!(self, Behavior::Honest)
    }

    /// Parses a behaviour keyword as used by `tldag node --behavior` and the
    /// `tldag cluster --adversary` schedule. Parameterised variants take the
    /// parameter after the keyword: `sybil:N` / `flooder:N` are not accepted
    /// here because `:` separates kind from count in adversary schedules;
    /// they remain engine-only placements.
    pub fn parse_kind(kind: &str) -> Option<Behavior> {
        match kind {
            "honest" => Some(Behavior::Honest),
            "unresponsive" => Some(Behavior::Unresponsive),
            "corrupt-reply" => Some(Behavior::CorruptReply),
            "corrupt-store" => Some(Behavior::CorruptStore),
            "selfish" => Some(Behavior::Selfish),
            "equivocate" => Some(Behavior::Equivocate),
            "digest-lie" => Some(Behavior::DigestLie),
            "parasite" => Some(Behavior::Parasite),
            "flapper" => Some(Behavior::Flapper),
            _ => None,
        }
    }
}

impl fmt::Display for Behavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Behavior::Honest => write!(f, "honest"),
            Behavior::Unresponsive => write!(f, "unresponsive"),
            Behavior::CorruptReply => write!(f, "corrupt-reply"),
            Behavior::CorruptStore => write!(f, "corrupt-store"),
            Behavior::Selfish => write!(f, "selfish"),
            Behavior::SybilImpersonator { claimed } => write!(f, "sybil(claims n{claimed})"),
            Behavior::Flooder { rate_multiplier } => write!(f, "flooder(x{rate_multiplier})"),
            Behavior::Equivocate => write!(f, "equivocate"),
            Behavior::DigestLie => write!(f, "digest-lie"),
            Behavior::Parasite => write!(f, "parasite"),
            Behavior::Flapper => write!(f, "flapper"),
        }
    }
}

#[cfg(test)]
impl Behavior {
    /// Whether this behaviour answers protocol requests honestly. The gossip
    /// attackers (equivocator, digest-liar, parasite) serve pulls from their
    /// canonical chain — their lies live purely in the push path, which is
    /// what lets honest nodes converge by pulling the slot directly.
    fn responds_honestly(&self) -> bool {
        matches!(
            self,
            Behavior::Honest
                | Behavior::Flooder { .. }
                | Behavior::Equivocate
                | Behavior::DigestLie
                | Behavior::Parasite
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(Behavior::default(), Behavior::Honest);
        assert!(!Behavior::Honest.is_malicious());
        assert!(Behavior::Honest.responds_honestly());
    }

    #[test]
    fn silence_classification() {
        assert!(Behavior::Unresponsive.is_silent());
        assert!(Behavior::Selfish.is_silent());
        assert!(Behavior::Flapper.is_silent());
        assert!(!Behavior::CorruptReply.is_silent());
        assert!(!Behavior::Equivocate.is_silent());
    }

    #[test]
    fn malicious_classification() {
        for b in [
            Behavior::Unresponsive,
            Behavior::CorruptReply,
            Behavior::CorruptStore,
            Behavior::Selfish,
            Behavior::SybilImpersonator { claimed: 0 },
            Behavior::Flooder { rate_multiplier: 8 },
            Behavior::Equivocate,
            Behavior::DigestLie,
            Behavior::Parasite,
            Behavior::Flapper,
        ] {
            assert!(b.is_malicious(), "{b}");
        }
    }

    #[test]
    fn gossip_attackers_serve_pulls_honestly() {
        for b in [
            Behavior::Equivocate,
            Behavior::DigestLie,
            Behavior::Parasite,
        ] {
            assert!(b.responds_honestly(), "{b}");
            assert!(!b.is_silent(), "{b}");
        }
        assert!(!Behavior::Flapper.responds_honestly());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Behavior::Honest.to_string(), "honest");
        assert_eq!(
            Behavior::SybilImpersonator { claimed: 3 }.to_string(),
            "sybil(claims n3)"
        );
        assert_eq!(Behavior::Equivocate.to_string(), "equivocate");
        assert_eq!(Behavior::Flapper.to_string(), "flapper");
    }

    #[test]
    fn parse_kind_round_trips_keyword_variants() {
        for kind in [
            "honest",
            "unresponsive",
            "corrupt-reply",
            "corrupt-store",
            "selfish",
            "equivocate",
            "digest-lie",
            "parasite",
            "flapper",
        ] {
            let parsed = Behavior::parse_kind(kind).expect(kind);
            assert_eq!(parsed.to_string(), kind);
        }
        assert_eq!(Behavior::parse_kind("sybil"), None);
        assert_eq!(Behavior::parse_kind(""), None);
    }
}
