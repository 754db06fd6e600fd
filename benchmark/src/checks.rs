//! Output checks, run by the same command that measures: every acked
//! `(client, seq)` is in the server's state exactly once.

use crate::gen::{Identity, RecordGen};
use crate::json::StatsSnapshot;
use crate::load::Conn;
use uucs_protocol::{ClientMsg, ServerMsg};
use uucs_server::shard_of;

/// One more upload per result shard, one at a time on one connection,
/// after concurrent load and before [`verify_server`]. The server sets
/// `server.shard.results.N.records` *after* releasing the shard lock,
/// so two uploads racing on one shard can leave the gauge one batch
/// behind the store (seen in about one run in twenty-five); a lone
/// upload per shard makes every gauge exact again. Each is an operation
/// like any other: acked or failed, and counted in `idents`.
pub fn settle(
    addr: &str,
    idents: &mut [Identity],
    gen: &mut RecordGen,
    batch: usize,
    shards: usize,
) -> Result<u64, String> {
    let mut conn = Conn::connect(addr, false).map_err(|e| format!("settle connect: {e}"))?;
    let mut settled = vec![false; shards];
    let mut failed = 0;
    for ident in idents.iter_mut() {
        let shard = shard_of(&ident.guid, shards);
        if std::mem::replace(&mut settled[shard], true) {
            continue;
        }
        let msg = ClientMsg::Upload {
            client: ident.guid.clone(),
            seq: ident.acked_seq + 1,
            records: gen.batch(&ident.guid, batch),
        };
        match conn.exchange(&msg) {
            Ok(ServerMsg::Ack(n)) if n == batch => {
                ident.acked_seq += 1;
                ident.acked_uploads += 1;
            }
            other => {
                eprintln!(
                    "check: settling upload for {} refused: {other:?}",
                    ident.name
                );
                failed += 1;
            }
        }
    }
    conn.bye();
    Ok(failed)
}

/// Verifies a server's state against what the load generator saw
/// acknowledged, over a fresh text connection:
///
/// * re-`REGISTER`ing each identity's token must answer
///   `ID <guid> <applied-seq>` with the GUID it was given and its last
///   acked sequence number — nothing acked is missing, nothing beyond
///   the acked horizon was applied;
/// * the per-shard result gauges must sum to `expected_records` —
///   nothing acked was stored twice.
///
/// Returns the number of misses (each is an `ops_failed`) and the
/// snapshot, for the counters the report differences.
pub fn verify_server(
    addr: &str,
    idents: &[Identity],
    expected_records: u64,
) -> Result<(u64, StatsSnapshot), String> {
    let mut conn = Conn::connect(addr, false).map_err(|e| format!("check connect: {e}"))?;
    let mut misses = 0;
    for ident in idents {
        let mut probe = ident.clone();
        let applied = conn
            .register(&mut probe)
            .map_err(|e| format!("check re-register {}: {e}", ident.name))?;
        if probe.guid != ident.guid || applied != ident.acked_seq {
            eprintln!(
                "check: {} is {} at seq {}, server says {} at seq {applied}",
                ident.name, ident.guid, ident.acked_seq, probe.guid
            );
            misses += 1;
        }
    }
    let stats = conn.stats().map_err(|e| format!("check STATS: {e}"))?;
    let stored = stats.gauge_sum("server.shard.results.", ".records");
    if stored != expected_records as f64 {
        eprintln!("check: server holds {stored} records, acked uploads carry {expected_records}");
        misses += 1;
    }
    conn.bye();
    Ok((misses, stats))
}

/// Records the acked uploads of `idents` carry.
pub fn acked_uploads(idents: &[Identity]) -> u64 {
    idents.iter().map(|i| i.acked_uploads).sum()
}
