//! The `tldag` command line in one place: the flag parser every subcommand
//! uses ([`Args`]), and the `tldag node` argv of a [`NetNodeConfig`]
//! (`NetNodeConfig::to_args` / [`NetNodeConfig::from_args`]) — the one
//! spelling the cluster harness spawns members with and `tldag node` reads
//! back.

use crate::membership::{format_churn_spec, parse_churn_spec};
use crate::runtime::NetNodeConfig;
use crate::transport::FaultSpec;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;
use tldag_core::attack::Behavior;
use tldag_sim::NodeId;

/// The flags `tldag node` accepts — every one [`NetNodeConfig::to_args`]
/// can emit — as a flag table: `name=` takes a value, a bare `name` is a
/// switch.
pub(crate) const NODE_FLAGS: &str = "id= listen= peers= controller= seed= nodes= side= gamma= \
    slots= pop window= batch= drop= trace storage= storage-dir= join= churn= evict-after= \
    deadline= metrics-addr= behavior=";

/// Parsed `--name VALUE` and `--switch` arguments, checked against a
/// subcommand's flag tables.
#[derive(Debug)]
pub struct Args {
    /// Flag name → its value (`None` for a switch).
    given: BTreeMap<String, Option<String>>,
}

impl Args {
    /// Parses `argv` against the union of `tables` (each whitespace
    /// separated: `name=` takes a value, a bare `name` is a switch).
    ///
    /// # Errors
    ///
    /// A positional argument, an undeclared flag, a switch followed by a
    /// value, or a value flag with none.
    pub fn parse(argv: &[String], tables: &[&str]) -> Result<Args, String> {
        let mut given = BTreeMap::new();
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let takes_value = tables
                .iter()
                .flat_map(|table| table.split_whitespace())
                .find_map(|flag| match flag.strip_suffix('=') {
                    Some(valued) => (valued == name).then_some(true),
                    None => (flag == name).then_some(false),
                })
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = rest.next_if(|next| !next.starts_with("--")).cloned();
            match (takes_value, &value) {
                (false, Some(v)) => {
                    return Err(format!(
                        "--{name} is a switch and takes no value (got `{v}`)"
                    ))
                }
                (true, None) => return Err(format!("--{name} needs a value")),
                _ => given.insert(name.to_string(), value),
            };
        }
        Ok(Args { given })
    }

    /// The parsed value of `--name`, if given. This and the helpers below
    /// fail with an error naming the flag when its value does not parse.
    ///
    /// # Errors
    ///
    /// The value does not parse as `T`.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(raw) = self.given.get(name).and_then(Option::as_deref) else {
            return Ok(None);
        };
        raw.parse()
            .map(Some)
            .map_err(|_| format!("invalid value for --{name}: `{raw}`"))
    }

    /// The parsed value of `--name`, or `default`.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The parsed value of a flag that must be given.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// `--name SECS` (a non-negative number, fractions allowed), if given.
    pub fn secs(&self, name: &str) -> Result<Option<Duration>, String> {
        self.opt::<f64>(name)?
            .map(|secs| {
                Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("invalid value for --{name}: `{secs}` (seconds)"))
            })
            .transpose()
    }

    /// `--storage-dir`, or a fresh `tldag-<tag>-<pid>` under the system
    /// temp dir.
    pub fn storage_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let default = std::env::temp_dir().join(format!("tldag-{tag}-{}", std::process::id()));
        self.get("storage-dir", default)
    }
}

impl NetNodeConfig {
    /// The `tldag node` argv that [`NetNodeConfig::from_args`] reads back
    /// as this config. It carries every field but `endpoint` (except its
    /// `batch`), the timeouts and `linger`, and of `fault` only the drop
    /// rate.
    pub(crate) fn to_args(&self) -> Vec<String> {
        let disk_dir = self.storage.as_ref().map(|dir| dir.display().to_string());
        let secs = |d: Option<Duration>| d.map(|d| d.as_secs_f64().to_string());
        let values = [
            ("id", Some(self.id.0.to_string())),
            ("listen", Some(self.listen.to_string())),
            ("seed", Some(self.seed.to_string())),
            ("nodes", Some(self.nodes.to_string())),
            ("side", Some(self.side_m.to_string())),
            ("gamma", Some(self.gamma.to_string())),
            ("slots", Some(self.slots.to_string())),
            ("window", Some(self.window.to_string())),
            ("batch", Some(self.endpoint.batch.to_string())),
            (
                "peers",
                (!self.peers.is_empty()).then(|| format_peer_list(&self.peers)),
            ),
            (
                "churn",
                (!self.churn.is_empty()).then(|| format_churn_spec(&self.churn)),
            ),
            ("controller", self.controller.map(|a| a.to_string())),
            ("join", self.join.map(|a| a.to_string())),
            ("metrics-addr", self.metrics_addr.map(|a| a.to_string())),
            ("evict-after", secs(self.evict_after)),
            ("deadline", secs(self.deadline)),
            (
                "behavior",
                (self.behavior != Behavior::Honest)
                    .then(|| format!("{}@{}", self.behavior, self.behavior_from)),
            ),
            ("drop", self.fault.map(|f| f.drop.to_string())),
            ("storage", disk_dir.as_ref().map(|_| "disk".to_string())),
            ("storage-dir", disk_dir),
        ];
        let mut out = Vec::new();
        for (name, value) in values {
            if let Some(value) = value {
                out.extend([format!("--{name}"), value]);
            }
        }
        for (name, on) in [("pop", self.pop), ("trace", self.trace)] {
            if on {
                out.push(format!("--{name}"));
            }
        }
        out
    }

    /// Parses a `tldag node` argv (see `NODE_FLAGS`). Absent flags keep
    /// the [`NetNodeConfig::new`] defaults; `--nodes` defaults to one more
    /// than the peer list.
    ///
    /// # Errors
    ///
    /// As [`Args::parse`], a missing `--id` or `--listen`, a value that does
    /// not parse, or a config `NetNodeConfig::validate` rejects.
    pub fn from_args(argv: &[String]) -> Result<Self, String> {
        let args = Args::parse(argv, &[NODE_FLAGS])?;
        let id = NodeId(args.required("id")?);
        let peers = parse_peer_list(&args.get("peers", String::new())?)?;
        let (listen, seed) = (args.required("listen")?, args.get("seed", 42)?);
        let (nodes, slots) = (args.get("nodes", peers.len() + 1)?, args.get("slots", 8)?);
        let mut config = NetNodeConfig::new(id, listen, seed, nodes, slots);
        config.read_shared_flags(&args, &format!("node-{}", id.0))?;
        config.peers = peers;
        config.controller = args.opt("controller")?;
        config.join = args.opt("join")?;
        config.deadline = args.secs("deadline")?;
        config.metrics_addr = args.opt("metrics-addr")?;
        if let Some(raw) = args.opt::<String>("behavior")? {
            let (kind, from) = raw.split_once('@').unwrap_or((&raw, "0"));
            let invalid =
                || format!("invalid value for --behavior: `{raw}` (expected KIND[@SLOT])");
            config.behavior = Behavior::parse_kind(kind).ok_or_else(invalid)?;
            config.behavior_from = from.parse().map_err(|_| invalid())?;
        }
        config.validate()?;
        Ok(config)
    }

    /// Reads the flags `tldag node` shares with `tldag cluster`, which
    /// sets them once for every member: `--side --gamma --pop --window
    /// --batch --drop --trace --churn --evict-after --storage
    /// --storage-dir`. An absent `--side`, `--gamma`, `--window` or
    /// `--batch` keeps this config's value; any other absent flag turns its
    /// field off. A disk store without `--storage-dir` goes under a fresh
    /// temp dir named by `storage_tag` ([`Args::storage_dir`]).
    ///
    /// # Errors
    ///
    /// A value that does not parse, naming its flag.
    pub fn read_shared_flags(&mut self, args: &Args, storage_tag: &str) -> Result<(), String> {
        self.side_m = args.get("side", self.side_m)?;
        self.gamma = args.get("gamma", self.gamma)?;
        self.pop = args.switch("pop");
        self.window = args.get("window", self.window)?;
        self.endpoint.batch = args.get("batch", self.endpoint.batch)?;
        self.fault = args
            .opt("drop")?
            .filter(|&p: &f64| p != 0.0)
            .map(FaultSpec::loss);
        self.trace = args.switch("trace");
        self.churn = parse_churn_spec(&args.get("churn", String::new())?)?;
        self.evict_after = args.secs("evict-after")?;
        self.storage = match args.get("storage", "memory".to_string())?.as_str() {
            "memory" => None,
            "disk" => Some(args.storage_dir(storage_tag)?),
            other => {
                return Err(format!(
                    "invalid value for --storage: `{other}` (memory|disk)"
                ))
            }
        };
        Ok(())
    }

    /// The range checks a node's knobs must pass, named by their flags.
    ///
    /// # Errors
    ///
    /// `window` outside `1..=32`, or a fault drop rate outside `0.0..1.0`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(1..=32).contains(&self.window) {
            return Err(format!("--window {} out of range (1..=32)", self.window));
        }
        match self.fault {
            Some(f) if !(0.0..1.0).contains(&f.drop) => {
                Err(format!("invalid value for --drop: `{}` (0.0..1.0)", f.drop))
            }
            _ => Ok(()),
        }
    }
}

/// Parses a `0@127.0.0.1:9000,2@127.0.0.1:9002` peer list.
///
/// # Errors
///
/// A human-readable message naming the offending entry.
fn parse_peer_list(raw: &str) -> Result<Vec<(NodeId, SocketAddr)>, String> {
    let mut out = Vec::new();
    for entry in raw.split(',').filter(|e| !e.is_empty()) {
        let (id_raw, addr_raw) = entry
            .split_once('@')
            .ok_or_else(|| format!("peer `{entry}` is not id@host:port"))?;
        let id: u32 = id_raw
            .parse()
            .map_err(|_| format!("peer `{entry}` has a non-numeric id"))?;
        let addr: SocketAddr = addr_raw
            .parse()
            .map_err(|_| format!("peer `{entry}` has an invalid address"))?;
        out.push((NodeId(id), addr));
    }
    Ok(out)
}

/// Renders peers back into the `id@addr,...` form [`parse_peer_list`]
/// accepts.
fn format_peer_list(peers: &[(NodeId, SocketAddr)]) -> String {
    peers
        .iter()
        .map(|(id, addr)| format!("{}@{addr}", id.0))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::ChurnEvent;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// Configs that between them set every field the codec carries.
    fn configs() -> Vec<NetNodeConfig> {
        let mut founder = NetNodeConfig::new(NodeId(1), addr(9001), 7, 3, 12);
        founder.peers = vec![(NodeId(0), addr(9000)), (NodeId(2), addr(9002))];
        founder.controller = Some(addr(9100));
        founder.side_m = 250.5;
        founder.gamma = 4;
        founder.pop = true;
        founder.window = 8;
        founder.endpoint.batch = 4;
        founder.fault = Some(FaultSpec::loss(0.1));
        founder.trace = true;
        founder.deadline = Some(Duration::from_secs(90));
        founder.metrics_addr = Some(addr(9200));
        founder.storage = Some(PathBuf::from("/tmp/tldag-codec"));
        founder.churn = vec![ChurnEvent::Leave {
            id: NodeId(1),
            slot: 6,
        }];

        let mut joiner = NetNodeConfig::new(NodeId(3), addr(9003), 7, 3, 12);
        joiner.join = Some(addr(9000));
        joiner.churn = vec![
            ChurnEvent::Join {
                id: NodeId(3),
                slot: 4,
            },
            ChurnEvent::Leave {
                id: NodeId(0),
                slot: 9,
            },
        ];
        joiner.evict_after = Some(Duration::from_millis(600));

        let mut adversary = NetNodeConfig::new(NodeId(2), addr(9002), 7, 3, 12);
        adversary.peers = vec![(NodeId(0), addr(9000)), (NodeId(1), addr(9001))];
        adversary.behavior = Behavior::Equivocate;
        adversary.behavior_from = 5;
        adversary.evict_after = Some(Duration::from_secs_f64(1.5));
        vec![founder, joiner, adversary]
    }

    #[test]
    fn node_argv_round_trips_and_emits_every_declared_flag() {
        let mut emitted = Vec::new();
        for config in configs() {
            let args = config.to_args();
            let back = NetNodeConfig::from_args(&args).expect("codec output parses");
            assert_eq!(format!("{back:?}"), format!("{config:?}"), "{args:?}");
            emitted.extend(
                args.into_iter()
                    .filter_map(|a| a.strip_prefix("--").map(str::to_string)),
            );
        }
        for name in NODE_FLAGS.split_whitespace() {
            let name = name.trim_end_matches('=');
            assert!(
                emitted.iter().any(|e| e == name),
                "--{name} is declared but to_args never emits it"
            );
        }
    }

    #[test]
    fn flags_are_checked_against_the_table() {
        const FLAGS: &[&str] = &["slots=", "pop"];
        let args = Args::parse(&argv(&["--slots", "10", "--pop"]), FLAGS).expect("declared");
        assert_eq!(args.get("slots", 40u64), Ok(10));
        assert!(args.switch("pop"));
        for (bad, names) in [
            (&["--slot", "10"][..], "--slot"),
            (&["--pop", "3"][..], "--pop"),
            (&["--slots"][..], "--slots"),
            (&["10"][..], "`10`"),
        ] {
            let err = Args::parse(&argv(bad), FLAGS).expect_err("rejected");
            assert!(err.contains(names), "{bad:?}: {err}");
        }
    }

    #[test]
    fn range_checks_name_their_flags() {
        let base = ["--id", "0", "--listen", "127.0.0.1:0"];
        for (extra, flag) in [
            (["--window", "33"], "--window"),
            (["--drop", "1.5"], "--drop"),
            (["--evict-after", "-1"], "--evict-after"),
            (["--behavior", "honest@x"], "--behavior"),
            (["--storage", "tape"], "--storage"),
        ] {
            let err = NetNodeConfig::from_args(&argv(&[&base[..], &extra[..]].concat()))
                .expect_err("out of range");
            assert!(err.contains(flag), "{extra:?}: {err}");
        }
    }

    #[test]
    fn parse_and_format_round_trip() {
        let raw = "0@127.0.0.1:9000,2@127.0.0.1:9002";
        let peers = parse_peer_list(raw).unwrap();
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].0, NodeId(0));
        assert_eq!(format_peer_list(&peers), raw);
    }

    #[test]
    fn malformed_entries_are_named() {
        assert!(parse_peer_list("nope").unwrap_err().contains("nope"));
        assert!(parse_peer_list("x@127.0.0.1:1").is_err());
        assert!(parse_peer_list("1@not-an-addr").is_err());
        assert!(parse_peer_list("").unwrap().is_empty());
    }
}
