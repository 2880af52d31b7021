//! The coordinator/worker wire protocol.
//!
//! Every message is a JSON object carrying a `proto` version field;
//! decoding rejects any payload whose version differs from
//! [`PROTOCOL_VERSION`], so a mixed-version cluster degrades into
//! explicit redispatch (the coordinator treats an undecodable response
//! exactly like a dead worker) instead of silently merging records
//! produced under different semantics.
//!
//! Routes:
//!
//! * `POST /cluster/heartbeat` (coordinator) — a worker's periodic
//!   `{worker, addr, load}`. A heartbeat is also the registration: it
//!   inserts the worker if the coordinator does not know it (first
//!   contact, eviction, coordinator restart) and refreshes it if it does.
//! * `POST /v1/cell` (worker) — one campaign cell; the response body
//!   is the executed [`RunRecord`].

use sttlock_campaign::json::Json;
use sttlock_campaign::{Cell, RunRecord};

/// Version of this wire protocol. Bump on any incompatible change to
/// the message shapes or cell/record encodings.
pub const PROTOCOL_VERSION: u32 = 2;

fn versioned(pairs: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("proto", Json::from(u64::from(PROTOCOL_VERSION)))];
    all.extend(pairs);
    Json::obj(all)
}

/// Checks the version gate every decoder runs first.
fn check_proto(v: &Json) -> Option<()> {
    (v.get("proto")?.as_u64()? as u32 == PROTOCOL_VERSION).then_some(())
}

/// `POST /cluster/heartbeat` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Stable worker identity.
    pub worker: String,
    /// Address the coordinator dials back on (`host:port`).
    pub addr: String,
    /// Cells currently executing on the worker.
    pub load: u64,
}

impl Heartbeat {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        versioned(vec![
            ("worker", Json::from(self.worker.as_str())),
            ("addr", Json::from(self.addr.as_str())),
            ("load", Json::from(self.load)),
        ])
    }

    /// Decodes; `None` on malformed or version-skewed payloads.
    pub fn from_json(v: &Json) -> Option<Heartbeat> {
        check_proto(v)?;
        Some(Heartbeat {
            worker: v.get("worker")?.as_str()?.to_owned(),
            addr: v.get("addr")?.as_str()?.to_owned(),
            load: v.get("load")?.as_u64()?,
        })
    }
}

/// `POST /v1/cell` body: one unit of campaign work.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// The grid cell to execute.
    pub cell: Cell,
    /// Per-cell wall budget, milliseconds (the campaign timeout).
    pub timeout_ms: u64,
}

impl CellRequest {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        versioned(vec![
            ("cell", self.cell.to_json()),
            ("timeout_ms", Json::from(self.timeout_ms)),
        ])
    }

    /// Decodes; `None` on malformed or version-skewed payloads.
    pub fn from_json(v: &Json) -> Option<CellRequest> {
        check_proto(v)?;
        Some(CellRequest {
            cell: Cell::from_json(v.get("cell")?)?,
            timeout_ms: v.get("timeout_ms")?.as_u64()?,
        })
    }
}

/// `POST /v1/cell` response: the executed record.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResponse {
    /// The record the worker produced.
    pub record: RunRecord,
}

impl CellResponse {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        versioned(vec![("record", self.record.to_json())])
    }

    /// Decodes; `None` on malformed or version-skewed payloads.
    pub fn from_json(v: &Json) -> Option<CellResponse> {
        check_proto(v)?;
        Some(CellResponse {
            record: RunRecord::from_json(v.get("record")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_campaign::{AttackKind, CircuitSpec, RunStatus, SelectionOverrides};

    /// One of each message, as the wire carries them.
    fn messages() -> (Heartbeat, CellRequest, CellResponse) {
        let heartbeat = Heartbeat {
            worker: "w-1".into(),
            addr: "127.0.0.1:4000".into(),
            load: 3,
        };
        let request = CellRequest {
            cell: Cell {
                circuit: CircuitSpec::Profile("s27".into()),
                algorithm: sttlock_core::SelectionAlgorithm::Dependent,
                seed: 9,
                attack: AttackKind::Sat { max_dips: 4 },
                overrides: SelectionOverrides::default(),
                fault: sttlock_fault::FaultModel::default(),
            },
            timeout_ms: 30_000,
        };
        let response = CellResponse {
            record: RunRecord::failure("s27", "dependent", 9, "sat", RunStatus::TimedOut),
        };
        (heartbeat, request, response)
    }

    /// Sends `v` over the wire, optionally relabelled with a foreign
    /// protocol version.
    fn wire(mut v: Json, foreign: bool) -> Json {
        if let (true, Json::Obj(map)) = (foreign, &mut v) {
            map.insert("proto".into(), Json::from(u64::from(PROTOCOL_VERSION) + 1));
        }
        Json::parse(&v.to_string()).unwrap()
    }

    #[test]
    fn every_message_round_trips() {
        let (heartbeat, request, response) = messages();
        assert_eq!(
            Heartbeat::from_json(&wire(heartbeat.to_json(), false)),
            Some(heartbeat)
        );
        assert_eq!(
            CellRequest::from_json(&wire(request.to_json(), false)),
            Some(request)
        );
        assert_eq!(
            CellResponse::from_json(&wire(response.to_json(), false)),
            Some(response)
        );
    }

    #[test]
    fn a_foreign_protocol_version_is_rejected_by_every_decoder() {
        let (heartbeat, request, response) = messages();
        assert_eq!(Heartbeat::from_json(&wire(heartbeat.to_json(), true)), None);
        assert_eq!(CellRequest::from_json(&wire(request.to_json(), true)), None);
        assert_eq!(
            CellResponse::from_json(&wire(response.to_json(), true)),
            None
        );
    }
}
