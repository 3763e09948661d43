//! A bank of per-register server automata: one keyspace server process.
//!
//! The single-register [`RegisterServer`] is the paper's Algorithm 2; a
//! keyspace server is simply a *map* of them, keyed by [`RegisterId`] and
//! instantiated lazily on first contact. Every piece of per-register state —
//! the value store, registration versions, GC floors and membership — lives
//! inside that register's own [`RegisterServer`], so keys cannot interfere:
//! a heavy writer on one register never advances or wedges another
//! register's GC floor, and recovery transfers state register by register.
//!
//! Wire compatibility: frames wrapped in [`Msg::ForRegister`] are routed to
//! the named register; bare legacy frames (discriminants 0–13) are routed to
//! [`RegisterId::DEFAULT`], so a bank is a drop-in replacement for a
//! single-register server.

use std::collections::BTreeMap;

use mwr_types::{ConfigEpoch, ProcessId, RegisterId};

use crate::msg::{Msg, RegisterTransfer, StateTransfer};
use crate::routing::Router;
use crate::server::RegisterServer;

/// One keyspace server: a lazily populated map of per-register
/// [`RegisterServer`]s behind a shared [`Router`].
///
/// # Examples
///
/// ```
/// use mwr_core::{Msg, OpHandle, OpId, Router, ServerBank};
/// use mwr_types::{ClientId, ProcessId, RegisterId, Tag, TaggedValue, Value, WriterId};
///
/// let mut bank = ServerBank::new(4, Router::new(5, 5, 1));
/// let handle = OpHandle { op: OpId { client: ClientId::writer(0), seq: 0 }, phase: 1 };
/// let tagged = TaggedValue::new(Tag::new(1, WriterId::new(0)), Value::new(7));
/// let update = Msg::Update { handle, value: tagged, floor: TaggedValue::initial() };
///
/// // A wrapped frame lands on its register; the reply is wrapped the same way.
/// let msg = Msg::ForRegister { register: RegisterId::new(3), inner: Box::new(update) };
/// let reply = bank.handle(ProcessId::writer(0), &msg).unwrap();
/// assert!(matches!(reply, Msg::ForRegister { register, .. } if register == RegisterId::new(3)));
/// assert_eq!(bank.register(RegisterId::new(3)).unwrap().state().latest(), tagged);
/// ```
#[derive(Debug, Clone)]
pub struct ServerBank {
    /// Client population (`R + W`) for per-register membership-aware GC.
    population: usize,
    /// Read only through [`Router::shard_of`] (which shard a `ShardFetch`
    /// exports), and that depends on the shard count alone, which no
    /// reconfiguration changes: the bank never needs a newer router.
    router: Router,
    /// Version floor inherited from a pre-crash incarnation: every register
    /// created after recovery — even one absent from every peer transfer —
    /// resumes its version counter above it, so a reader's stale
    /// acknowledgements can never alias fresh registration versions.
    version_floor: u64,
    registers: BTreeMap<RegisterId, RegisterServer>,
    /// The highest configuration epoch this bank has observed. Epochs live
    /// at the bank (process) level — the per-register automata stay at
    /// epoch 0 and the bank tags every outgoing reply — because a
    /// reconfiguration changes the *server set*, which all registers share.
    epoch: ConfigEpoch,
}

impl ServerBank {
    /// Creates an empty bank with acknowledged-floor GC enabled per register
    /// for `population` clients.
    pub fn new(population: usize, router: Router) -> Self {
        ServerBank {
            population,
            router,
            version_floor: 0,
            registers: BTreeMap::new(),
            epoch: ConfigEpoch::ZERO,
        }
    }

    /// Creates a recovering bank: each register named in `transfers` is
    /// rebuilt from its own quorum of peer snapshots (exactly the
    /// single-register [`RegisterServer::recovered`] path), and
    /// `version_floor` — the version the crashed bank's thread returned
    /// when it exited — bounds every register's version counter, including
    /// registers instantiated lazily later.
    pub fn recovered(
        population: usize,
        router: Router,
        version_floor: u64,
        transfers: &BTreeMap<RegisterId, Vec<StateTransfer>>,
    ) -> Self {
        let registers = transfers
            .iter()
            .map(|(&register, states)| {
                (register, RegisterServer::recovered(population, version_floor, states))
            })
            .collect();
        ServerBank {
            population,
            router,
            version_floor,
            registers,
            epoch: ConfigEpoch::ZERO,
        }
    }

    /// The highest configuration epoch this bank has observed.
    pub fn epoch(&self) -> ConfigEpoch {
        self.epoch
    }

    /// Advances the bank's epoch (monotone; a lower epoch is a no-op).
    pub fn set_epoch(&mut self, epoch: ConfigEpoch) {
        self.epoch = self.epoch.adopt(epoch);
    }

    /// Read access to one register's server, if it has been instantiated.
    pub fn register(&self, register: RegisterId) -> Option<&RegisterServer> {
        self.registers.get(&register)
    }

    /// Iterates over the instantiated registers.
    pub fn registers(&self) -> impl Iterator<Item = (RegisterId, &RegisterServer)> {
        self.registers.iter().map(|(&r, s)| (r, s))
    }

    /// The bank's version high-water: the maximum registration version
    /// across all registers (and any inherited recovery floor). One maximum
    /// for the whole bank is a sound recovery floor because
    /// [`RegisterServer::recovered`] treats the floor as a lower bound — an
    /// overestimate only makes a rebuilt register resume its counter higher.
    pub fn max_version(&self) -> u64 {
        self.registers
            .values()
            .map(|s| s.state().version())
            .max()
            .unwrap_or(0)
            .max(self.version_floor)
    }

    fn register_mut(&mut self, register: RegisterId) -> &mut RegisterServer {
        let population = self.population;
        let version_floor = self.version_floor;
        self.registers.entry(register).or_insert_with(|| {
            if version_floor == 0 {
                RegisterServer::with_gc(population)
            } else {
                RegisterServer::recovered(population, version_floor, &[])
            }
        })
    }

    /// Computes the reply for one request, routing by register id.
    ///
    /// [`Msg::ForRegister`] frames are unwrapped, handled by the named
    /// register, and the reply re-wrapped with the same id (so client
    /// matchers can discard cross-register strays). [`Msg::ShardFetch`] is
    /// answered with every instantiated register of that shard. Bare legacy
    /// frames go to [`RegisterId::DEFAULT`] and reply bare.
    ///
    /// Epoch handling: an [`Msg::InEpoch`] header advances the bank's epoch
    /// to `max(own, frame)` before the payload is processed, and once the
    /// bank is past epoch 0 *every* reply — even to a bare legacy frame —
    /// carries the epoch header, so a client whose view is stale learns of
    /// the reconfiguration from its next acknowledgement. At epoch 0
    /// replies stay legacy, byte for byte. The registers themselves hold
    /// no epoch.
    pub fn handle(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg> {
        if let Msg::InEpoch { epoch, inner } = msg {
            self.epoch = self.epoch.adopt(*epoch);
            return self.handle(from, inner);
        }
        self.handle_payload(from, msg).map(|reply| reply.in_epoch(self.epoch))
    }

    fn handle_payload(&mut self, from: ProcessId, msg: &Msg) -> Option<Msg> {
        match msg {
            Msg::ForRegister { register, inner } => {
                let reply = self.register_mut(*register).handle(from, inner)?;
                Some(Msg::ForRegister { register: *register, inner: Box::new(reply) })
            }
            Msg::ShardFetch { shard, nonce } => {
                // Server-to-server recovery traffic only, as for the legacy
                // `StateFetch`.
                from.as_server()?;
                let registers = self
                    .registers
                    .iter()
                    .filter(|(&r, _)| self.router.shard_of(r) == *shard)
                    .map(|(&r, s)| RegisterTransfer { register: r, state: s.state().export() })
                    .collect();
                Some(Msg::ShardSnapshot { nonce: *nonce, shard: *shard, registers })
            }
            Msg::ShardInstall { nonce, shard, registers } => {
                // The reconfiguration coordinator's push of one shard's
                // merged state into a server gaining that shard (a joining
                // member, or a survivor the rendezvous reshuffle assigns new
                // shards). Each register installs with the rejoin merge —
                // running registers only gain information.
                from.as_server()?;
                for t in registers {
                    self.register_mut(t.register).install_from(std::slice::from_ref(&t.state));
                }
                Some(Msg::ShardInstallAck { nonce: *nonce, shard: *shard })
            }
            // A reply that somehow reaches a server; never handled.
            Msg::ShardSnapshot { .. } => None,
            // Legacy single-register traffic (including `StateFetch`, whose
            // own server-only gate lives in `RegisterServer::handle`).
            legacy => self.register_mut(RegisterId::DEFAULT).handle(from, legacy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{OpHandle, OpId};
    use mwr_types::{ClientId, Tag, TaggedValue, Value, WriterId};

    fn update(seq: u64, ts: u64, v: u64) -> Msg {
        Msg::Update {
            handle: OpHandle { op: OpId { client: ClientId::writer(0), seq }, phase: 1 },
            value: TaggedValue::new(Tag::new(ts, WriterId::new(0)), Value::new(v)),
            floor: TaggedValue::initial(),
        }
    }

    fn wrap(register: u32, inner: Msg) -> Msg {
        Msg::ForRegister { register: RegisterId::new(register), inner: Box::new(inner) }
    }

    #[test]
    fn legacy_frames_land_on_the_default_register() {
        let mut bank = ServerBank::new(2, Router::new(3, 3, 1));
        let reply = bank.handle(ProcessId::writer(0), &update(0, 1, 10)).unwrap();
        assert!(matches!(reply, Msg::UpdateAck { .. }), "bare frame replies bare");
        let latest = bank.register(RegisterId::DEFAULT).unwrap().state().latest();
        assert_eq!(latest.value(), Value::new(10));
        assert_eq!(bank.registers().count(), 1);
    }

    #[test]
    fn registers_are_isolated() {
        let mut bank = ServerBank::new(2, Router::new(3, 3, 4));
        bank.handle(ProcessId::writer(0), &wrap(1, update(0, 1, 10)));
        bank.handle(ProcessId::writer(0), &wrap(2, update(1, 5, 50)));
        let k1 = bank.register(RegisterId::new(1)).unwrap().state();
        let k2 = bank.register(RegisterId::new(2)).unwrap().state();
        assert_eq!(k1.latest().value(), Value::new(10));
        assert_eq!(k2.latest().value(), Value::new(50));
        assert!(bank.register(RegisterId::new(3)).is_none(), "lazy: untouched keys absent");
    }

    #[test]
    fn shard_fetch_is_server_only_and_filtered_by_shard() {
        let router = Router::new(5, 3, 8);
        let mut bank = ServerBank::new(2, router);
        // Touch a handful of registers across shards.
        for k in 0..16 {
            bank.handle(ProcessId::writer(0), &wrap(k, update(u64::from(k), 1, u64::from(k))));
        }
        let fetch = Msg::ShardFetch { shard: 2, nonce: 9 };
        assert!(bank.handle(ProcessId::writer(0), &fetch).is_none(), "clients may not fetch");
        let Some(Msg::ShardSnapshot { nonce, shard, registers }) =
            bank.handle(ProcessId::server(4), &fetch)
        else {
            panic!("peer fetch must be answered");
        };
        assert_eq!((nonce, shard), (9, 2));
        for t in &registers {
            assert_eq!(router.shard_of(t.register), 2, "only shard 2's registers ship");
        }
        let expected =
            (0..16).filter(|&k| router.shard_of(RegisterId::new(k)) == 2).count();
        assert_eq!(registers.len(), expected);
    }

    /// What a single-register cluster's rejoin rests on: a bank that only
    /// ever saw bare frames exports them as shard 0's one register.
    #[test]
    fn bare_traffic_ships_as_the_default_register_of_shard_zero() {
        let mut bank = ServerBank::new(2, Router::new(3, 3, 1));
        bank.handle(ProcessId::writer(0), &update(0, 1, 10));
        bank.handle(ProcessId::writer(0), &update(1, 2, 20));
        let Some(Msg::ShardSnapshot { registers, .. }) =
            bank.handle(ProcessId::server(1), &Msg::ShardFetch { shard: 0, nonce: 1 })
        else {
            panic!("peer fetch must be answered");
        };
        let [only] = registers.as_slice() else { panic!("one register, got {registers:?}") };
        assert_eq!(only.register, RegisterId::DEFAULT);
        assert_eq!(only.state.latest.value(), Value::new(20), "the last bare update");
    }

    #[test]
    fn epoch_lives_at_the_bank_and_tags_wrapped_replies() {
        let mut bank = ServerBank::new(2, Router::new(3, 3, 4));
        let e1 = ConfigEpoch::new(1);
        let framed = wrap(1, update(0, 1, 10)).in_epoch(e1);
        let reply = bank.handle(ProcessId::writer(0), &framed).unwrap();
        assert_eq!(reply.epoch(), e1);
        assert_eq!(bank.epoch(), e1);
        let (_, inner) = reply.into_epoch_parts();
        assert!(matches!(inner, Msg::ForRegister { .. }), "epoch wraps the register frame");
        // Bare legacy traffic now draws tagged replies too.
        let reply = bank.handle(ProcessId::writer(0), &update(1, 2, 20)).unwrap();
        assert_eq!(reply.epoch(), e1);
    }

    /// An epoch header advances the bank; from then on every reply —
    /// even to a bare legacy frame — carries the epoch, so stale clients
    /// learn of the reconfiguration from their next acknowledgement.
    #[test]
    fn epoch_adoption_is_monotone_and_tags_replies() {
        let mut bank = ServerBank::new(2, Router::new(3, 3, 1));
        assert_eq!(bank.epoch(), ConfigEpoch::ZERO);
        // Epoch 0: replies are legacy, byte for byte.
        let q = Msg::Query {
            handle: OpHandle { op: OpId { client: ClientId::reader(0), seq: 0 }, phase: 1 },
        };
        let reply = bank.handle(ProcessId::reader(0), &q).unwrap();
        assert!(matches!(reply, Msg::QueryAck { .. }), "epoch 0 replies stay bare");

        // A frame at epoch 2 advances the bank and gets a tagged reply.
        let e2 = ConfigEpoch::new(2);
        let reply = bank.handle(ProcessId::reader(0), &q.clone().in_epoch(e2)).unwrap();
        assert_eq!(reply.epoch(), e2);
        assert_eq!(bank.epoch(), e2);

        // A *stale* bare frame now still draws a tagged reply…
        let reply = bank.handle(ProcessId::reader(0), &q).unwrap();
        assert_eq!(reply.epoch(), e2, "post-reconfig replies always carry the epoch");
        // …and a lower-epoch frame cannot move the bank backwards.
        bank.handle(ProcessId::reader(0), &q.clone().in_epoch(ConfigEpoch::new(1)));
        assert_eq!(bank.epoch(), e2);
        bank.set_epoch(ConfigEpoch::new(1));
        assert_eq!(bank.epoch(), e2, "set_epoch is monotone too");
    }

    #[test]
    fn shard_install_is_server_only_and_lands_per_register() {
        let router = Router::new(5, 3, 8);
        let mut donor = ServerBank::new(2, router);
        for k in 0..8 {
            donor.handle(ProcessId::writer(0), &wrap(k, update(u64::from(k), 2, u64::from(k))));
        }
        let hot = router.shard_of(RegisterId::new(0));
        let Some(Msg::ShardSnapshot { registers, shard, .. }) =
            donor.handle(ProcessId::server(4), &Msg::ShardFetch { shard: hot, nonce: 1 })
        else {
            panic!("peer fetch must be answered");
        };
        assert!(!registers.is_empty(), "key 0's shard saw traffic");

        let mut joiner = ServerBank::new(2, router);
        let install = Msg::ShardInstall { nonce: 7, shard, registers: registers.clone() };
        assert!(joiner.handle(ProcessId::writer(0), &install).is_none(), "clients may not install");
        let reply = joiner.handle(ProcessId::server(4), &install);
        assert_eq!(reply, Some(Msg::ShardInstallAck { nonce: 7, shard: hot }));
        for t in &registers {
            let state = joiner.register(t.register).expect("installed").state();
            assert_eq!(state.latest(), t.state.latest, "per-register state landed");
        }
    }

    #[test]
    fn recovered_bank_floors_lazy_registers() {
        let bank = ServerBank::recovered(2, Router::new(3, 3, 1), 41, &BTreeMap::new());
        assert_eq!(bank.max_version(), 41);
        let mut bank = bank;
        bank.handle(ProcessId::writer(0), &wrap(5, update(0, 1, 10)));
        // The lazily created register resumed above the beacon: its reset
        // floor marks every pre-crash acknowledgement stale.
        let state = bank.register(RegisterId::new(5)).unwrap().state();
        assert!(state.version() > 41);
        assert!(state.reset_floor() > 41);
    }
}
