//! The cluster node: membership, routing, forwarding, replication,
//! and work stealing.
//!
//! A [`ClusterNode`] owns one extra TCP listener next to the HTTP
//! server and two background threads:
//!
//! * the **listener** answers peer frames (join handshakes, heartbeats,
//!   forwarded `execute` requests, scattered `sweep_part` batches,
//!   replica pushes, metrics fan-out, peer-list queries, graceful
//!   leaves), spawning one short-lived thread per connection;
//! * the **heartbeat loop** pings every known peer each
//!   [`ClusterConfig::heartbeat_ms`], piggybacking the local queue
//!   depth and the full peer list (gossip-lite: any peer learned by one
//!   node reaches the others within a round). A peer that misses three
//!   consecutive windows is declared dead, tombstoned so gossip cannot
//!   resurrect it, and removed from the ring — its keys rehash to the
//!   survivors that hold their replicas.
//!
//! The node is deliberately ignorant of HTTP and of the simulator: the
//! serve layer hands it three closures ([`Hooks`]) — run a request
//! body against a local endpoint, snapshot the local metrics, and
//! report the local queue depth. That keeps the dependency arrow
//! pointing one way (serve → cluster) with no circular knowledge.

use crate::proto::{self, read_frame, write_rendered_frame};
use crate::ring::{Ring, DEFAULT_VNODES};
use hetmem_sim::SimError;
use hetmem_xplore::json::Json;
use hetmem_xplore::ser::SweepRecord;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Runs one forwarded request against a local serve endpoint
/// (`"/v1/sim"` or `"/v1/check"`) and reports how it went.
pub type Executor = Arc<dyn Fn(&str, &str) -> ExecReply + Send + Sync>;

/// Snapshots the local `/metrics` document for cluster-wide fan-out.
pub type MetricsProvider = Arc<dyn Fn() -> Json + Send + Sync>;

/// Reports the local queue depth, used for steal decisions and
/// heartbeat piggybacking.
pub type LoadProbe = Arc<dyn Fn() -> u64 + Send + Sync>;

/// The serve-layer callbacks a node needs to do its job.
#[derive(Clone)]
pub struct Hooks {
    /// Executes a forwarded request locally.
    pub executor: Executor,
    /// Snapshots local metrics.
    pub metrics: MetricsProvider,
    /// Reports local queue depth.
    pub load: LoadProbe,
}

/// The owner's answer to a forwarded `execute` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecReply {
    /// The request ran (or was answered from cache); here is the exact
    /// response body the owner's HTTP path would have produced.
    Body(String),
    /// The owner's queue is full — the entry node should run the job
    /// itself (work stealing) rather than queue behind the hot shard.
    Busy,
    /// The owner is draining for shutdown.
    Draining,
    /// The owner accepted the job but the caller's deadline passed.
    Timeout {
        /// Milliseconds the job waited before the deadline fired.
        waited_ms: u64,
    },
    /// The request itself was bad or the job failed.
    Failed(String),
}

/// Where [`ClusterNode::plan`] says a request should run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Execute on this node (it owns the key, the ring is trivial, or
    /// the owner is overloaded and this node is stealing the work).
    Local,
    /// Forward to the ring owner at this cluster address.
    Forward(String),
}

/// A forwarded request's terminal outcome, mirroring what the local
/// path would have produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Forwarded {
    /// The owner's response body, byte-identical to a local answer.
    Body(String),
    /// The owner timed the job out against the caller's deadline.
    Timeout {
        /// Milliseconds waited before the deadline fired.
        waited_ms: u64,
    },
    /// The owner rejected or failed the request body itself.
    Failed(String),
}

/// Why a forward did not produce an outcome. Every variant means the
/// entry node should fall back to executing locally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardFailure {
    /// The owner's admission queue is full.
    Busy,
    /// The owner is draining for shutdown.
    Draining,
    /// The owner could not be reached at all.
    Unavailable(SimError),
}

/// Tunables for one cluster node.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Cluster listener bind address. `None` binds an ephemeral
    /// loopback port (`127.0.0.1:0`).
    pub advertise: Option<String>,
    /// An existing member to join, or `None` to found a new ring.
    pub join: Option<String>,
    /// This node's HTTP address, gossiped so peers can probe
    /// `GET /v1/health` and operators can find every API endpoint.
    pub http_addr: String,
    /// Heartbeat period. A peer missing `3 *` this window is dead.
    pub heartbeat_ms: u64,
    /// Virtual nodes per member on the hash ring.
    pub vnodes: usize,
    /// Per-key access count at which the owner pushes the cached
    /// result to its ring successor.
    pub replicate_after: u64,
    /// Queue depth at which a shard counts as overloaded: an idle
    /// entry node runs the job itself instead of forwarding.
    pub steal_queue_threshold: u64,
    /// Where to persist the last-known peer list on every membership
    /// change (`<cache-dir>/cluster-peers.json`, typically). A restarted
    /// node with no reachable `join` seed falls back to dialing these
    /// addresses, so a bounced process rejoins its fleet unattended.
    /// `None` disables persistence.
    pub peers_path: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            advertise: None,
            join: None,
            http_addr: "127.0.0.1:0".to_owned(),
            heartbeat_ms: 500,
            vnodes: DEFAULT_VNODES,
            replicate_after: 2,
            steal_queue_threshold: 8,
            peers_path: None,
        }
    }
}

/// What this node knows about one peer.
#[derive(Clone, Debug)]
struct PeerState {
    /// The peer's HTTP address (health probes, operator discovery).
    http: String,
    /// When the peer last proved it was alive (heartbeat either way).
    last_seen: Instant,
    /// The peer's queue depth from its last heartbeat.
    queued: u64,
}

/// A slot that entry-side waiters for an in-flight forward block on.
struct RemoteSlot {
    done: Mutex<Option<Result<Forwarded, ForwardFailure>>>,
    cv: Condvar,
}

impl RemoteSlot {
    fn new() -> RemoteSlot {
        RemoteSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, outcome: Result<Forwarded, ForwardFailure>) {
        *lock(&self.done) = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Forwarded, ForwardFailure> {
        let mut done = lock(&self.done);
        loop {
            if let Some(outcome) = done.clone() {
                return outcome;
            }
            done = self.cv.wait(done).expect("cluster slot lock");
        }
    }
}

/// Recovers from a poisoned lock: every structure behind these locks is
/// valid after any partial update (counters and maps, no invariants
/// spanning fields), so a panicking peer-handler thread must not take
/// the whole node down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How long a forwarded `execute` may run before the entry node gives
/// up on the owner. Matches the longest job the serve layer accepts.
const EXECUTE_READ_TIMEOUT: Duration = Duration::from_secs(600);
/// Read timeout for short control frames (hello, replicate, metrics).
const CONTROL_READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Read timeout for heartbeats — a slow peer is a dead peer.
const HEARTBEAT_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Missed-heartbeat windows before a peer is declared dead.
const MISS_WINDOWS: u32 = 3;
/// Heartbeat periods a tombstone outlives its peer, blocking gossip
/// from resurrecting an address the ring already buried.
const TOMBSTONE_WINDOWS: u32 = 10;

/// One member of a hetmem serve fleet.
pub struct ClusterNode {
    cfg: ClusterConfig,
    hooks: Hooks,
    /// This node's cluster address as peers dial it.
    self_addr: String,
    listen_addr: SocketAddr,
    members: Mutex<HashMap<String, PeerState>>,
    tombstones: Mutex<HashMap<String, Instant>>,
    ring: Mutex<Ring>,
    /// Entry-side coalescing: content key → slot shared by concurrent
    /// forwards of the identical request.
    inflight: Mutex<HashMap<String, Arc<RemoteSlot>>>,
    /// Per-key access counts, tracked only for keys this node owns.
    access: Mutex<HashMap<String, u64>>,
    /// Replicas pushed here by ring predecessors.
    replicas: Mutex<HashMap<String, SweepRecord>>,
    draining: AtomicBool,
    stop: Mutex<bool>,
    stop_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    forwards_out: AtomicU64,
    forwards_in: AtomicU64,
    remote_coalesced: AtomicU64,
    work_steals: AtomicU64,
    peer_failures: AtomicU64,
    peers_removed: AtomicU64,
    replications_out: AtomicU64,
    replicas_stored: AtomicU64,
    replica_hits: AtomicU64,
    heartbeats_sent: AtomicU64,
    sweep_parts_in: AtomicU64,
    sweep_parts_out: AtomicU64,
    sweep_part_failovers: AtomicU64,
}

impl ClusterNode {
    /// Binds the cluster listener, joins the ring named by
    /// [`ClusterConfig::join`] (if any), and starts the listener and
    /// heartbeat threads.
    ///
    /// The node's HTTP server must already be accepting: the seed
    /// probes the joiner's `GET /v1/health` before admitting it.
    ///
    /// # Errors
    ///
    /// Returns an error when the listener cannot bind, or when the
    /// seed is unreachable or refuses the join.
    pub fn start(cfg: ClusterConfig, hooks: Hooks) -> Result<Arc<ClusterNode>, SimError> {
        let bind = cfg
            .advertise
            .clone()
            .unwrap_or_else(|| "127.0.0.1:0".to_owned());
        let listener = TcpListener::bind(&bind)
            .map_err(|e| SimError::Io(format!("cluster bind {bind}: {e}")))?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| SimError::Io(format!("cluster listener address: {e}")))?;
        let self_addr = listen_addr.to_string();
        let node = Arc::new(ClusterNode {
            ring: Mutex::new(Ring::new(std::slice::from_ref(&self_addr), cfg.vnodes)),
            cfg,
            hooks,
            self_addr,
            listen_addr,
            members: Mutex::new(HashMap::new()),
            tombstones: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            access: Mutex::new(HashMap::new()),
            replicas: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
            forwards_out: AtomicU64::new(0),
            forwards_in: AtomicU64::new(0),
            remote_coalesced: AtomicU64::new(0),
            work_steals: AtomicU64::new(0),
            peer_failures: AtomicU64::new(0),
            peers_removed: AtomicU64::new(0),
            replications_out: AtomicU64::new(0),
            replicas_stored: AtomicU64::new(0),
            replica_hits: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            sweep_parts_in: AtomicU64::new(0),
            sweep_parts_out: AtomicU64::new(0),
            sweep_part_failovers: AtomicU64::new(0),
        });

        let accept_node = Arc::clone(&node);
        let accept = std::thread::spawn(move || accept_node.accept_loop(&listener));
        lock(&node.threads).push(accept);

        if let Some(seed) = node.cfg.join.clone() {
            if let Err(err) = node.join_seed(&seed) {
                // The named seed is gone; a persisted peer list from a
                // previous life may still name live members.
                if !node.rejoin_persisted() {
                    node.shutdown();
                    return Err(err);
                }
            }
        } else if node.cfg.peers_path.is_some() {
            // Founding a ring, but a previous incarnation may have left
            // peers behind — rejoin them rather than split-brain.
            let _ = node.rejoin_persisted();
        }

        let beat_node = Arc::clone(&node);
        let beat = std::thread::spawn(move || beat_node.heartbeat_loop());
        lock(&node.threads).push(beat);
        Ok(node)
    }

    /// This node's cluster listener address.
    #[must_use]
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// This node's cluster address as peers dial it.
    #[must_use]
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// A clone of the current hash ring, for callers that partition a
    /// batch by ownership (the distributed sweep dispatcher). The clone
    /// is a consistent snapshot: membership changes after it never
    /// corrupt a partition, they only route parts to nodes that answer
    /// busy or unavailable — which the engine survives by failover.
    #[must_use]
    pub fn ring_snapshot(&self) -> Ring {
        lock(&self.ring).clone()
    }

    /// Every live member's HTTP address (this node excluded), sorted.
    /// The serve layer hands these to clients that polled the wrong
    /// node for an async job.
    #[must_use]
    pub fn peer_http_addrs(&self) -> Vec<String> {
        let mut addrs: Vec<String> = lock(&self.members)
            .values()
            .map(|p| p.http.clone())
            .filter(|http| !http.is_empty())
            .collect();
        addrs.sort();
        addrs
    }

    /// Counts sweep parts scattered from this node to part owners.
    pub fn note_parts_out(&self, parts: u64) {
        self.sweep_parts_out.fetch_add(parts, Ordering::Relaxed);
    }

    /// Counts one sweep part that came back onto the local pool after
    /// its owner proved unreachable, draining, or busy — the batch
    /// flavor of reactive stealing.
    pub fn note_part_failover(&self) {
        self.sweep_part_failovers.fetch_add(1, Ordering::Relaxed);
        self.work_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Decides where the request addressed by `key` should run.
    ///
    /// The ring owner runs it — unless the owner's last-heartbeat queue
    /// depth is at [`ClusterConfig::steal_queue_threshold`] while this
    /// node sits idle, in which case the work is stolen and run here.
    #[must_use]
    pub fn plan(&self, key: &str) -> Plan {
        let owner = lock(&self.ring).owner(key).map(str::to_owned);
        let Some(owner) = owner else {
            return Plan::Local;
        };
        if owner == self.self_addr {
            return Plan::Local;
        }
        let owner_queued = lock(&self.members).get(&owner).map(|p| p.queued);
        if let Some(queued) = owner_queued {
            if queued >= self.cfg.steal_queue_threshold
                && (self.hooks.load)() < self.cfg.steal_queue_threshold
            {
                self.work_steals.fetch_add(1, Ordering::Relaxed);
                return Plan::Local;
            }
        }
        Plan::Forward(owner)
    }

    /// Forwards one request to its ring `owner`, coalescing with any
    /// identical forward already in flight from this node: one
    /// connection crosses the wire, every caller gets the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`ForwardFailure`] when the owner rejected the job
    /// (busy/draining) or could not be reached; the caller should then
    /// run the job locally.
    pub fn forward(
        &self,
        owner: &str,
        endpoint: &str,
        body: &str,
        key: &str,
    ) -> Result<Forwarded, ForwardFailure> {
        let (slot, leader) = {
            let mut inflight = lock(&self.inflight);
            if let Some(slot) = inflight.get(key) {
                (Arc::clone(slot), false)
            } else {
                let slot = Arc::new(RemoteSlot::new());
                inflight.insert(key.to_owned(), Arc::clone(&slot));
                (slot, true)
            }
        };
        if !leader {
            self.remote_coalesced.fetch_add(1, Ordering::Relaxed);
            return slot.wait();
        }
        let outcome = self.forward_once(owner, endpoint, body, key);
        lock(&self.inflight).remove(key);
        slot.fulfill(outcome.clone());
        outcome
    }

    fn forward_once(
        &self,
        owner: &str,
        endpoint: &str,
        body: &str,
        key: &str,
    ) -> Result<Forwarded, ForwardFailure> {
        self.forwards_out.fetch_add(1, Ordering::Relaxed);
        let request = Json::obj(vec![
            ("kind", Json::Str("execute".to_owned())),
            ("endpoint", Json::Str(endpoint.to_owned())),
            ("key", Json::Str(key.to_owned())),
            ("body", Json::Str(body.to_owned())),
        ]);
        let reply = match proto::call(owner, &request, EXECUTE_READ_TIMEOUT) {
            Ok(reply) => reply,
            Err(err) => {
                self.peer_failures.fetch_add(1, Ordering::Relaxed);
                return Err(ForwardFailure::Unavailable(err));
            }
        };
        match reply.get("kind").and_then(Json::as_str) {
            Some("result") => match reply.get("body").and_then(Json::as_str) {
                Some(body) => Ok(Forwarded::Body(body.to_owned())),
                None => Err(ForwardFailure::Unavailable(SimError::PeerUnavailable {
                    peer: owner.to_owned(),
                })),
            },
            Some("busy") => Err(ForwardFailure::Busy),
            Some("draining") => Err(ForwardFailure::Draining),
            Some("timeout") => Ok(Forwarded::Timeout {
                waited_ms: reply.get("waited_ms").and_then(Json::as_u64).unwrap_or(0),
            }),
            Some("error") => Ok(Forwarded::Failed(
                reply
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("peer error")
                    .to_owned(),
            )),
            _ => Err(ForwardFailure::Unavailable(SimError::PeerUnavailable {
                peer: owner.to_owned(),
            })),
        }
    }

    /// Records one access to a key this node owns; at
    /// [`ClusterConfig::replicate_after`] accesses the cached `record`
    /// is pushed to the key's ring successor, so the entry survives
    /// this node's death already warm.
    pub fn note_access(&self, key: &str, record: &SweepRecord) {
        let owns = lock(&self.ring).owner(key) == Some(self.self_addr.as_str());
        if !owns {
            return;
        }
        let count = {
            let mut access = lock(&self.access);
            let count = access.entry(key.to_owned()).or_insert(0);
            *count += 1;
            *count
        };
        if count != self.cfg.replicate_after {
            return;
        }
        let successor = lock(&self.ring)
            .owners(key, 2)
            .get(1)
            .map(|s| (*s).to_owned());
        let Some(successor) = successor else {
            return;
        };
        let request = Json::obj(vec![
            ("kind", Json::Str("replicate".to_owned())),
            ("key", Json::Str(key.to_owned())),
            ("record", record.to_json()),
        ]);
        match proto::call(&successor, &request, CONTROL_READ_TIMEOUT) {
            Ok(_) => {
                self.replications_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.peer_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes the replica stored under `key`, if a ring predecessor
    /// pushed one here. The caller promotes it into its local disk
    /// cache, so removal is correct: the next lookup hits that cache.
    pub fn replica_take(&self, key: &str) -> Option<SweepRecord> {
        let record = lock(&self.replicas).remove(key);
        if record.is_some() {
            self.replica_hits.fetch_add(1, Ordering::Relaxed);
        }
        record
    }

    /// Counts a job this node ran on the owner's behalf after the
    /// owner rejected or dropped it — the reactive half of stealing.
    pub fn note_steal(&self) {
        self.work_steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Fans out to every live peer for its `/metrics` document.
    /// Unreachable peers are skipped (and counted as failures); the
    /// caller merges the survivors with its own snapshot.
    #[must_use]
    pub fn peer_metrics(&self) -> Vec<(String, Json)> {
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let request = Json::obj(vec![("kind", Json::Str("metrics".to_owned()))]);
        let mut out = Vec::with_capacity(peers.len());
        for peer in peers {
            match proto::call(&peer, &request, CONTROL_READ_TIMEOUT) {
                Ok(reply) => {
                    if let Some(body) = reply.get("body") {
                        out.push((peer, body.clone()));
                    }
                }
                Err(_) => {
                    self.peer_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// This node's cluster state and counters as one JSON object — the
    /// `"cluster"` section of `/metrics`.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let peers: Vec<Json> = {
            let members = lock(&self.members);
            let mut rows: Vec<(String, String, u64)> = members
                .iter()
                .map(|(addr, p)| (addr.clone(), p.http.clone(), p.queued))
                .collect();
            rows.sort();
            rows.into_iter()
                .map(|(cluster, http, queued)| {
                    Json::obj(vec![
                        ("cluster", Json::Str(cluster)),
                        ("http", Json::Str(http)),
                        ("queued", Json::UInt(queued)),
                    ])
                })
                .collect()
        };
        let count = |c: &AtomicU64| Json::UInt(c.load(Ordering::Relaxed));
        Json::obj(vec![
            ("self", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
            ("peers", Json::Arr(peers)),
            ("forwards_out", count(&self.forwards_out)),
            ("forwards_in", count(&self.forwards_in)),
            ("remote_coalesced", count(&self.remote_coalesced)),
            ("work_steals", count(&self.work_steals)),
            ("peer_failures", count(&self.peer_failures)),
            ("peers_removed", count(&self.peers_removed)),
            ("replications_out", count(&self.replications_out)),
            ("replicas_stored", count(&self.replicas_stored)),
            ("replica_hits", count(&self.replica_hits)),
            ("heartbeats_sent", count(&self.heartbeats_sent)),
            ("sweep_parts_in", count(&self.sweep_parts_in)),
            ("sweep_parts_out", count(&self.sweep_parts_out)),
            ("sweep_part_failovers", count(&self.sweep_part_failovers)),
        ])
    }

    /// Leaves the ring and stops both background threads: announces a
    /// graceful `leave` to every peer (so they rehash immediately
    /// instead of waiting out the miss window), then joins the
    /// listener and heartbeat threads.
    pub fn shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        *lock(&self.stop) = true;
        self.stop_cv.notify_all();
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let leave = Json::obj(vec![
            ("kind", Json::Str("leave".to_owned())),
            ("from", Json::Str(self.self_addr.clone())),
        ]);
        for peer in peers {
            let _ = proto::call(&peer, &leave, HEARTBEAT_READ_TIMEOUT);
        }
        // Wake the accept loop so it observes the drain flag.
        let _ = TcpStream::connect(self.listen_addr);
        let threads = std::mem::take(&mut *lock(&self.threads));
        for handle in threads {
            let _ = handle.join();
        }
    }

    // ------------------------------------------------------------------
    // Membership.

    /// Sends the join handshake to `seed` and adopts its peer list.
    fn join_seed(&self, seed: &str) -> Result<(), SimError> {
        let hello = Json::obj(vec![
            ("kind", Json::Str("hello".to_owned())),
            ("cluster", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
        ]);
        let reply = proto::call(seed, &hello, CONTROL_READ_TIMEOUT)?;
        if reply.get("kind").and_then(Json::as_str) != Some("welcome") {
            let message = reply
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("join rejected");
            return Err(SimError::Io(format!("cluster join {seed}: {message}")));
        }
        if let Some(Json::Arr(peers)) = reply.get("peers") {
            self.merge_peers(peers);
        }
        Ok(())
    }

    /// Admits every unknown, non-tombstoned peer from a gossiped list.
    fn merge_peers(&self, peers: &[Json]) {
        let now = Instant::now();
        let mut changed = false;
        for peer in peers {
            let Some(cluster) = peer.get("cluster").and_then(Json::as_str) else {
                continue;
            };
            let http = peer.get("http").and_then(Json::as_str).unwrap_or_default();
            if cluster == self.self_addr || self.is_tombstoned(cluster) {
                continue;
            }
            let mut members = lock(&self.members);
            if !members.contains_key(cluster) {
                members.insert(
                    cluster.to_owned(),
                    PeerState {
                        http: http.to_owned(),
                        last_seen: now,
                        queued: 0,
                    },
                );
                changed = true;
            }
        }
        if changed {
            self.rebuild_ring();
        }
    }

    /// Whether `addr` is under a live tombstone; prunes expired ones.
    fn is_tombstoned(&self, addr: &str) -> bool {
        let ttl = Duration::from_millis(self.cfg.heartbeat_ms * u64::from(TOMBSTONE_WINDOWS));
        let mut tombstones = lock(&self.tombstones);
        tombstones.retain(|_, buried| buried.elapsed() < ttl);
        tombstones.contains_key(addr)
    }

    /// Rebuilds the hash ring from the current member set plus self.
    /// Every membership change funnels through here, which makes it the
    /// one place to persist the peer list for unattended rejoin.
    fn rebuild_ring(&self) {
        let mut nodes: Vec<String> = lock(&self.members).keys().cloned().collect();
        nodes.push(self.self_addr.clone());
        let ring = Ring::new(&nodes, self.cfg.vnodes);
        *lock(&self.ring) = ring;
        self.persist_peers();
    }

    /// Writes the current peer list to [`ClusterConfig::peers_path`]
    /// (write-temp-then-rename, so readers never see a torn file).
    /// Best-effort: a full disk must not take down membership.
    fn persist_peers(&self) {
        let Some(path) = &self.cfg.peers_path else {
            return;
        };
        let body = Json::obj(vec![("peers", self.peer_list())]).render() + "\n";
        let tmp = path.with_extension("json.tmp");
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if std::fs::write(&tmp, body).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Dials the peers persisted by a previous incarnation, joining the
    /// first one that answers the handshake. Returns whether any did.
    fn rejoin_persisted(&self) -> bool {
        let Some(path) = &self.cfg.peers_path else {
            return false;
        };
        let Ok(body) = std::fs::read_to_string(path) else {
            return false;
        };
        let Ok(value) = hetmem_xplore::json::parse(&body) else {
            return false;
        };
        let Some(Json::Arr(peers)) = value.get("peers") else {
            return false;
        };
        for peer in peers {
            let Some(cluster) = peer.get("cluster").and_then(Json::as_str) else {
                continue;
            };
            if cluster == self.self_addr {
                continue;
            }
            if self.join_seed(cluster).is_ok() {
                return true;
            }
            self.peer_failures.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// The gossiped peer list: every member plus this node.
    fn peer_list(&self) -> Json {
        let mut rows: Vec<(String, String)> = lock(&self.members)
            .iter()
            .map(|(addr, p)| (addr.clone(), p.http.clone()))
            .collect();
        rows.push((self.self_addr.clone(), self.cfg.http_addr.clone()));
        rows.sort();
        Json::Arr(
            rows.into_iter()
                .map(|(cluster, http)| {
                    Json::obj(vec![
                        ("cluster", Json::Str(cluster)),
                        ("http", Json::Str(http)),
                    ])
                })
                .collect(),
        )
    }

    fn heartbeat_loop(self: Arc<ClusterNode>) {
        let period = Duration::from_millis(self.cfg.heartbeat_ms.max(1));
        loop {
            {
                let mut stopped = lock(&self.stop);
                while !*stopped {
                    let (guard, timeout) = self
                        .stop_cv
                        .wait_timeout(stopped, period)
                        .expect("cluster stop lock");
                    stopped = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
            }
            self.heartbeat_round();
        }
    }

    /// One heartbeat round: ping every peer, merge gossip, and bury
    /// peers that have missed [`MISS_WINDOWS`] windows.
    fn heartbeat_round(&self) {
        let peers: Vec<String> = lock(&self.members).keys().cloned().collect();
        let request = Json::obj(vec![
            ("kind", Json::Str("heartbeat".to_owned())),
            ("from", Json::Str(self.self_addr.clone())),
            ("http", Json::Str(self.cfg.http_addr.clone())),
            ("queued", Json::UInt((self.hooks.load)())),
            ("peers", self.peer_list()),
        ]);
        for peer in &peers {
            self.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
            match proto::call(peer, &request, HEARTBEAT_READ_TIMEOUT) {
                Ok(reply) if reply.get("kind").and_then(Json::as_str) == Some("ack") => {
                    let queued = reply.get("queued").and_then(Json::as_u64).unwrap_or(0);
                    if let Some(state) = lock(&self.members).get_mut(peer) {
                        state.last_seen = Instant::now();
                        state.queued = queued;
                    }
                    if let Some(Json::Arr(gossiped)) = reply.get("peers") {
                        self.merge_peers(gossiped);
                    }
                }
                _ => {
                    self.peer_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let miss = Duration::from_millis(self.cfg.heartbeat_ms * u64::from(MISS_WINDOWS));
        let dead: Vec<String> = lock(&self.members)
            .iter()
            .filter(|(_, p)| p.last_seen.elapsed() > miss)
            .map(|(addr, _)| addr.clone())
            .collect();
        for addr in dead {
            self.remove_peer(&addr);
        }
    }

    /// Removes a peer (dead or departing), tombstones it, and rehashes.
    fn remove_peer(&self, addr: &str) {
        let removed = lock(&self.members).remove(addr).is_some();
        if !removed {
            return;
        }
        lock(&self.tombstones).insert(addr.to_owned(), Instant::now());
        self.peers_removed.fetch_add(1, Ordering::Relaxed);
        self.rebuild_ring();
    }

    // ------------------------------------------------------------------
    // Listener side.

    fn accept_loop(self: Arc<ClusterNode>, listener: &TcpListener) {
        loop {
            let Ok((conn, _)) = listener.accept() else {
                break;
            };
            let _ = conn.set_nodelay(true);
            if self.draining.load(Ordering::SeqCst) {
                break;
            }
            let node = Arc::clone(&self);
            std::thread::spawn(move || node.handle_conn(conn));
        }
    }

    fn handle_conn(&self, mut conn: TcpStream) {
        let _ = conn.set_read_timeout(Some(CONTROL_READ_TIMEOUT));
        let Ok(request) = read_frame(&mut conn) else {
            return;
        };
        let reply = match request.get("kind").and_then(Json::as_str) {
            // Rendered by the handler itself, which must size the frame.
            Some("sweep_part") => self.on_sweep_part(&request),
            _ => self.reply_to(&request).render(),
        };
        let _ = write_rendered_frame(&mut conn, &reply);
    }

    fn reply_to(&self, request: &Json) -> Json {
        match request.get("kind").and_then(Json::as_str) {
            Some("hello") => self.on_hello(request),
            Some("heartbeat") => self.on_heartbeat(request),
            Some("execute") => self.on_execute(request),
            Some("peers") => Json::obj(vec![
                ("kind", Json::Str("peers".to_owned())),
                ("vnodes", Json::UInt(self.cfg.vnodes as u64)),
                ("peers", self.peer_list()),
            ]),
            Some("replicate") => self.on_replicate(request),
            Some("metrics") => Json::obj(vec![
                ("kind", Json::Str("metrics".to_owned())),
                ("body", (self.hooks.metrics)()),
            ]),
            Some("leave") => self.on_leave(request),
            _ => error_frame("unknown frame kind"),
        }
    }

    /// Join handshake: probe the joiner's HTTP health endpoint, then
    /// admit it and hand back the full peer list.
    fn on_hello(&self, request: &Json) -> Json {
        let Some(cluster) = request.get("cluster").and_then(Json::as_str) else {
            return error_frame("hello without a cluster address");
        };
        let Some(http) = request.get("http").and_then(Json::as_str) else {
            return error_frame("hello without an http address");
        };
        if self.draining.load(Ordering::SeqCst) {
            return error_frame("seed is draining");
        }
        match proto::http_get(http, "/v1/health") {
            Ok(body) if body.contains("\"ready\":true") => {}
            Ok(_) => return error_frame("joiner is not ready"),
            Err(_) => return error_frame("joiner health endpoint unreachable"),
        }
        lock(&self.tombstones).remove(cluster);
        lock(&self.members).insert(
            cluster.to_owned(),
            PeerState {
                http: http.to_owned(),
                last_seen: Instant::now(),
                queued: 0,
            },
        );
        self.rebuild_ring();
        Json::obj(vec![
            ("kind", Json::Str("welcome".to_owned())),
            ("peers", self.peer_list()),
        ])
    }

    fn on_heartbeat(&self, request: &Json) -> Json {
        if let (Some(from), Some(http)) = (
            request.get("from").and_then(Json::as_str),
            request.get("http").and_then(Json::as_str),
        ) {
            if from != self.self_addr {
                let queued = request.get("queued").and_then(Json::as_u64).unwrap_or(0);
                // A direct heartbeat is proof of life, which overrides
                // any tombstone (gossip, by contrast, never does).
                lock(&self.tombstones).remove(from);
                let known = {
                    let mut members = lock(&self.members);
                    let known = members.contains_key(from);
                    members.insert(
                        from.to_owned(),
                        PeerState {
                            http: http.to_owned(),
                            last_seen: Instant::now(),
                            queued,
                        },
                    );
                    known
                };
                if !known {
                    self.rebuild_ring();
                }
            }
            if let Some(Json::Arr(gossiped)) = request.get("peers") {
                self.merge_peers(gossiped);
            }
        }
        Json::obj(vec![
            ("kind", Json::Str("ack".to_owned())),
            ("queued", Json::UInt((self.hooks.load)())),
            ("peers", self.peer_list()),
        ])
    }

    fn on_execute(&self, request: &Json) -> Json {
        self.forwards_in.fetch_add(1, Ordering::Relaxed);
        let endpoint = request.get("endpoint").and_then(Json::as_str).unwrap_or("");
        let body = request.get("body").and_then(Json::as_str).unwrap_or("");
        match (self.hooks.executor)(endpoint, body) {
            ExecReply::Body(body) => Json::obj(vec![
                ("kind", Json::Str("result".to_owned())),
                ("body", Json::Str(body)),
            ]),
            ExecReply::Busy => Json::obj(vec![("kind", Json::Str("busy".to_owned()))]),
            ExecReply::Draining => Json::obj(vec![("kind", Json::Str("draining".to_owned()))]),
            ExecReply::Timeout { waited_ms } => Json::obj(vec![
                ("kind", Json::Str("timeout".to_owned())),
                ("waited_ms", Json::UInt(waited_ms)),
            ]),
            ExecReply::Failed(message) => error_frame(&message),
        }
    }

    /// Owner-side half of a distributed sweep: execute one scattered
    /// partition through the serve layer's `/v1/sweep-part` hook (which
    /// runs it on the local engine + disk cache, off the request pool)
    /// and frame the records back. Busy/draining/failed map to the
    /// existing frame vocabulary — the entry node's engine reacts to
    /// all of them the same way, by running the part locally.
    ///
    /// Returns the reply already rendered: a result is rendered once, both
    /// to check it against the frame cap and to be written.
    fn on_sweep_part(&self, request: &Json) -> String {
        self.sweep_parts_in.fetch_add(1, Ordering::Relaxed);
        let body = request.get("body").and_then(Json::as_str).unwrap_or("");
        let reply = match (self.hooks.executor)("/v1/sweep-part", body) {
            ExecReply::Body(body) => {
                let reply = Json::obj(vec![
                    ("kind", Json::Str("sweep_part_result".to_owned())),
                    ("body", Json::Str(body)),
                ])
                .render();
                // JSON escaping can inflate the body, so bound the
                // exact rendered frame, not the payload estimate.
                if reply.len() > proto::MAX_FRAME_BYTES {
                    return error_frame("sweep part result exceeds the frame cap").render();
                }
                return reply;
            }
            ExecReply::Busy => Json::obj(vec![("kind", Json::Str("busy".to_owned()))]),
            ExecReply::Draining => Json::obj(vec![("kind", Json::Str("draining".to_owned()))]),
            ExecReply::Timeout { waited_ms } => Json::obj(vec![
                ("kind", Json::Str("timeout".to_owned())),
                ("waited_ms", Json::UInt(waited_ms)),
            ]),
            ExecReply::Failed(message) => error_frame(&message),
        };
        reply.render()
    }

    fn on_replicate(&self, request: &Json) -> Json {
        let Some(key) = request.get("key").and_then(Json::as_str) else {
            return error_frame("replicate without a key");
        };
        let Some(record) = request.get("record") else {
            return error_frame("replicate without a record");
        };
        match SweepRecord::from_json(record) {
            Ok(record) => {
                lock(&self.replicas).insert(key.to_owned(), record);
                self.replicas_stored.fetch_add(1, Ordering::Relaxed);
                Json::obj(vec![("kind", Json::Str("ack".to_owned()))])
            }
            Err(err) => error_frame(&format!("bad replica record: {err}")),
        }
    }

    fn on_leave(&self, request: &Json) -> Json {
        if let Some(from) = request.get("from").and_then(Json::as_str) {
            self.remove_peer(from);
        }
        Json::obj(vec![("kind", Json::Str("ack".to_owned()))])
    }
}

fn error_frame(message: &str) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("error".to_owned())),
        ("message", Json::Str(message.to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_sim::{ExecMode, RunReport};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;

    /// A throwaway HTTP listener that answers every request with a
    /// ready `/v1/health` body, standing in for the serve layer during
    /// join handshakes. The thread leaks until process exit, which is
    /// fine for a test.
    fn health_stub() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { break };
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut conn, &mut buf);
                let body = "{\"status\":\"ok\",\"live\":true,\"ready\":true}\n";
                let _ = std::io::Write::write_all(
                    &mut conn,
                    format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        addr
    }

    fn hooks(tag: &str, load: Arc<AtomicU64>) -> Hooks {
        let tag = tag.to_owned();
        Hooks {
            executor: Arc::new(move |endpoint, body| {
                ExecReply::Body(format!("{tag}:{endpoint}:{body}"))
            }),
            metrics: Arc::new(|| Json::obj(vec![("requests_total", Json::UInt(1))])),
            load: Arc::new(move || load.load(Ordering::Relaxed)),
        }
    }

    fn two_nodes(heartbeat_ms: u64) -> (Arc<ClusterNode>, Arc<ClusterNode>, Arc<AtomicU64>) {
        let load_a = Arc::new(AtomicU64::new(0));
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                heartbeat_ms,
                replicate_after: 1,
                ..ClusterConfig::default()
            },
            hooks("a", Arc::clone(&load_a)),
        )
        .expect("start a");
        let b = ClusterNode::start(
            ClusterConfig {
                join: Some(a.self_addr().to_owned()),
                http_addr: health_stub(),
                heartbeat_ms,
                replicate_after: 1,
                ..ClusterConfig::default()
            },
            hooks("b", Arc::new(AtomicU64::new(0))),
        )
        .expect("start b");
        (a, b, load_a)
    }

    /// A key the given node owns, found by trial.
    fn key_owned_by(node: &ClusterNode, ring: &Ring) -> String {
        for i in 0..4096 {
            let key = format!("job-{i}");
            if ring.owner(&key) == Some(node.self_addr()) {
                return key;
            }
        }
        panic!("no key owned by {}", node.self_addr());
    }

    #[test]
    fn join_then_forward_runs_on_the_owner() {
        let (a, b, _) = two_nodes(500);
        let ring = Ring::new(
            &[a.self_addr().to_owned(), b.self_addr().to_owned()],
            DEFAULT_VNODES,
        );
        let key = key_owned_by(&a, &ring);
        assert_eq!(b.plan(&key), Plan::Forward(a.self_addr().to_owned()));
        assert_eq!(a.plan(&key), Plan::Local);
        let outcome = b
            .forward(a.self_addr(), "/v1/sim", "{\"kernel\":\"stencil\"}", &key)
            .expect("forward");
        assert_eq!(
            outcome,
            Forwarded::Body("a:/v1/sim:{\"kernel\":\"stencil\"}".to_owned())
        );
        let status = a.status_json();
        assert_eq!(status.get("forwards_in").and_then(Json::as_u64), Some(1));
        assert_eq!(
            b.status_json().get("forwards_out").and_then(Json::as_u64),
            Some(1)
        );
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn concurrent_identical_forwards_coalesce() {
        let slow = Arc::new(AtomicU64::new(0));
        let slow_in_exec = Arc::clone(&slow);
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                ..ClusterConfig::default()
            },
            Hooks {
                executor: Arc::new(move |_, _| {
                    slow_in_exec.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(200));
                    ExecReply::Body("slow".to_owned())
                }),
                metrics: Arc::new(|| Json::obj(vec![])),
                load: Arc::new(|| 0),
            },
        )
        .expect("start a");
        let b = ClusterNode::start(
            ClusterConfig {
                join: Some(a.self_addr().to_owned()),
                http_addr: health_stub(),
                ..ClusterConfig::default()
            },
            hooks("b", Arc::new(AtomicU64::new(0))),
        )
        .expect("start b");

        let owner = a.self_addr().to_owned();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let b = Arc::clone(&b);
                    let owner = owner.clone();
                    scope.spawn(move || b.forward(&owner, "/v1/sim", "{}", "same-key"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for result in results {
            assert_eq!(result.expect("forward"), Forwarded::Body("slow".to_owned()));
        }
        // One execution crossed the wire; the other callers coalesced.
        assert_eq!(slow.load(Ordering::Relaxed), 1);
        assert_eq!(
            b.status_json()
                .get("remote_coalesced")
                .and_then(Json::as_u64),
            Some(2)
        );
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn busy_owners_get_stolen_from_and_replicas_round_trip() {
        let (a, b, load_a) = two_nodes(500);
        let ring = Ring::new(
            &[a.self_addr().to_owned(), b.self_addr().to_owned()],
            DEFAULT_VNODES,
        );
        let key = key_owned_by(&a, &ring);

        // b has not heard a heartbeat carrying a's queue depth yet, so
        // inject one by heartbeating manually: a reports itself deep.
        load_a.store(64, Ordering::Relaxed);
        b.heartbeat_round();
        assert_eq!(b.plan(&key), Plan::Local, "deep owner queue should steal");
        assert_eq!(
            b.status_json().get("work_steals").and_then(Json::as_u64),
            Some(1)
        );
        load_a.store(0, Ordering::Relaxed);
        b.heartbeat_round();
        assert_eq!(b.plan(&key), Plan::Forward(a.self_addr().to_owned()));

        // Replication: a owns the key; its successor for the key is b.
        let record = SweepRecord {
            id: 1,
            kind: "case-study".into(),
            kernel: "reduction".into(),
            target: "Fusion".into(),
            scale: 64,
            design_point: "p".into(),
            mode: ExecMode::Accurate,
            report: RunReport {
                kernel: "reduction".into(),
                parallel_ticks: 7,
                ..RunReport::default()
            },
            timeline: None,
        };
        a.note_access(&key, &record); // replicate_after = 1 in two_nodes
        assert_eq!(
            b.status_json()
                .get("replicas_stored")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(b.replica_take(&key), Some(record));
        assert_eq!(b.replica_take(&key), None);
        assert_eq!(
            b.status_json().get("replica_hits").and_then(Json::as_u64),
            Some(1)
        );
        // b never owned the key, so its own accesses do not replicate.
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn sweep_part_result_over_the_frame_cap_becomes_an_error_frame() {
        // `ExecReply::Body` carries whatever the executor produced; a body
        // one byte over the cap cannot fit once framed.
        let oversized = Hooks {
            executor: Arc::new(|_, _| ExecReply::Body("x".repeat(proto::MAX_FRAME_BYTES + 1))),
            ..hooks("a", Arc::new(AtomicU64::new(0)))
        };
        let node = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                ..ClusterConfig::default()
            },
            oversized,
        )
        .expect("start");
        let request = Json::obj(vec![
            ("kind", Json::Str("sweep_part".to_owned())),
            ("body", Json::Str("part".to_owned())),
        ]);
        let reply = hetmem_xplore::json::parse(&node.on_sweep_part(&request)).expect("json");
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("error"));
        assert!(reply
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("frame cap")));
        node.shutdown();

        // Under the cap, the rendered reply is the result frame itself.
        let node = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                ..ClusterConfig::default()
            },
            hooks("a", Arc::new(AtomicU64::new(0))),
        )
        .expect("start");
        let rendered = node.on_sweep_part(&request);
        let reply = hetmem_xplore::json::parse(&rendered).expect("json");
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("sweep_part_result")
        );
        assert_eq!(
            reply.get("body").and_then(Json::as_str),
            Some("a:/v1/sweep-part:part")
        );
        assert_eq!(rendered, reply.render(), "rendered exactly once, as framed");
        node.shutdown();
    }

    #[test]
    fn dead_peers_are_buried_after_the_miss_window() {
        let load = Arc::new(AtomicU64::new(0));
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                heartbeat_ms: 40,
                ..ClusterConfig::default()
            },
            hooks("a", Arc::clone(&load)),
        )
        .expect("start a");
        // Hand-deliver a hello from a "peer" whose cluster address was
        // bound and dropped: it passes the health probe (a live stub)
        // but will never answer a heartbeat.
        let ghost_addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let hello = Json::obj(vec![
            ("kind", Json::Str("hello".to_owned())),
            ("cluster", Json::Str(ghost_addr.clone())),
            ("http", Json::Str(health_stub())),
        ]);
        let reply = proto::call(a.self_addr(), &hello, Duration::from_secs(5)).expect("hello");
        assert_eq!(reply.get("kind").and_then(Json::as_str), Some("welcome"));
        assert_eq!(lock(&a.ring).len(), 2);

        let deadline = Instant::now() + Duration::from_secs(5);
        while lock(&a.ring).len() != 1 {
            assert!(Instant::now() < deadline, "ghost peer never buried");
            std::thread::sleep(Duration::from_millis(20));
        }
        let status = a.status_json();
        assert_eq!(status.get("peers_removed").and_then(Json::as_u64), Some(1));
        assert!(status.get("peer_failures").and_then(Json::as_u64) >= Some(1));
        // The tombstone blocks gossip resurrection.
        assert!(a.is_tombstoned(&ghost_addr));
        a.shutdown();
    }

    #[test]
    fn graceful_leave_removes_the_peer_immediately() {
        let (a, b, _) = two_nodes(500);
        assert_eq!(lock(&a.ring).len(), 2);
        assert_eq!(lock(&b.ring).len(), 2);
        b.shutdown();
        // No miss window: the leave frame removed b synchronously.
        assert_eq!(lock(&a.ring).len(), 1);
        assert_eq!(
            a.status_json().get("peers_removed").and_then(Json::as_u64),
            Some(1)
        );
        a.shutdown();
    }

    #[test]
    fn persisted_peers_let_a_restarted_node_rejoin() {
        let dir =
            std::env::temp_dir().join(format!("hetmem-cluster-peers-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pb = dir.join("b").join("cluster-peers.json");
        let a = ClusterNode::start(
            ClusterConfig {
                http_addr: health_stub(),
                peers_path: Some(dir.join("a").join("cluster-peers.json")),
                ..ClusterConfig::default()
            },
            hooks("a", Arc::new(AtomicU64::new(0))),
        )
        .expect("start a");
        let b = ClusterNode::start(
            ClusterConfig {
                join: Some(a.self_addr().to_owned()),
                http_addr: health_stub(),
                peers_path: Some(pb.clone()),
                ..ClusterConfig::default()
            },
            hooks("b", Arc::new(AtomicU64::new(0))),
        )
        .expect("start b");
        // The join rebuilt both rings, so both peer files exist and
        // name both members.
        let persisted = std::fs::read_to_string(&pb).expect("b's peer file");
        assert!(persisted.contains(a.self_addr()), "{persisted}");
        assert!(persisted.contains(b.self_addr()), "{persisted}");
        b.shutdown();

        // "Restart" b: the configured seed is dead, but the persisted
        // list still names a, so the new incarnation joins unattended.
        let dead_seed = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let b2 = ClusterNode::start(
            ClusterConfig {
                join: Some(dead_seed),
                http_addr: health_stub(),
                peers_path: Some(pb),
                ..ClusterConfig::default()
            },
            hooks("b2", Arc::new(AtomicU64::new(0))),
        )
        .expect("rejoin via persisted peers");
        assert_eq!(lock(&b2.ring).len(), 2);
        assert_eq!(lock(&a.ring).len(), 2);
        b2.shutdown();
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
