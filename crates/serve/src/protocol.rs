//! The NDJSON wire protocol: one request object per input line, one
//! response record per output line, in input order.
//!
//! Request: `{"id":"chip-7","design":"aes/Syn-1","log":"fail pattern 3 obs 9\n..."}`
//! where `log` is an `m3d-failure-log v1` document (the `#` header line
//! is optional on the wire). A request is one JSON object whose values
//! are strings or `null`, read with [`m3d_obs::json`]. Unknown keys are
//! ignored so clients can attach their own metadata.
//!
//! Response records are *total*: every record carries every key, with
//! `null` for fields the outcome did not produce. In particular
//! `t_p_fallback` and `degrade_reason` are present on **every** record —
//! `ok` responses say `"degrade_reason":null` explicitly, and `rejected`
//! responses still report the serving session's `t_p_fallback` when the
//! design resolved. The server never drops a request or closes the
//! connection on bad input: malformed lines come back as
//! `"status":"rejected"` records (never-500 semantics).

use m3d_obs::json::{self, Json};
use m3d_obs::report::json_string;

/// A parsed diagnosis request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Design label the target artifact was trained for
    /// (`"<profile>/<config>"`, e.g. `"aes/Syn-1"`).
    pub design: String,
    /// The failure log, `m3d-failure-log v1` lines joined with `\n`.
    pub log: String,
}

/// Parses one request line: a JSON object whose values are strings or
/// `null`. Missing, `null` or empty `id`, `design`, or `log` keys are
/// errors (the caller converts them into `rejected` records).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Json::Obj(mut fields) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err("request must be a JSON object".to_string());
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| !matches!(v, Json::Str(_) | Json::Null))
    {
        return Err(format!("value of `{key}` must be a string (or null)"));
    }
    let mut take = |key: &str| match fields.remove(key) {
        Some(Json::Str(v)) if !v.is_empty() => Ok(v),
        _ => Err(format!("missing `{key}`")),
    };
    Ok(Request {
        id: take("id")?,
        design: take("design")?,
        log: take("log")?,
    })
}

/// Response disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Healthy diagnosis: full GNN evidence applied.
    Ok,
    /// Diagnosis completed on the degraded path (unpruned ATPG ranking;
    /// `degrade_reason` says why).
    Degraded,
    /// The request never reached a diagnosis (parse error, unknown
    /// design, internal panic); `error` says why.
    Rejected,
}

impl Status {
    /// Wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Degraded => "degraded",
            Status::Rejected => "rejected",
        }
    }
}

/// One response record. See the module docs for the totality contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id (`"?"` when the line did not parse far
    /// enough to recover one).
    pub id: String,
    /// Echo of the requested design (`"?"` when unrecoverable).
    pub design: String,
    /// Disposition.
    pub status: Status,
    /// Degradation contract label (`empty_subgraph`, ...) — `None` on
    /// healthy and rejected records, serialized as JSON `null`.
    pub degrade_reason: Option<&'static str>,
    /// Whether the serving session's `T_P` is the unreachable-precision
    /// fallback; `None` (JSON `null`) only when no session resolved.
    pub t_p_fallback: Option<bool>,
    /// Predicted faulty tier.
    pub tier: Option<u8>,
    /// Tier-predictor confidence.
    pub confidence: Option<f32>,
    /// Policy branch taken (`pruned` / `reordered`).
    pub action: Option<&'static str>,
    /// Final report resolution (candidate count after the policy).
    pub resolution: Option<usize>,
    /// Raw ATPG report resolution.
    pub atpg_resolution: Option<usize>,
    /// Candidates moved to the backup dictionary.
    pub pruned: Option<usize>,
    /// Rejection cause; `None` on non-rejected records.
    pub error: Option<String>,
}

impl Response {
    /// A rejected record that still carries the totality-contract keys.
    pub fn rejected(id: &str, design: &str, error: impl Into<String>) -> Response {
        Response {
            id: id.to_string(),
            design: design.to_string(),
            status: Status::Rejected,
            degrade_reason: None,
            t_p_fallback: None,
            tier: None,
            confidence: None,
            action: None,
            resolution: None,
            atpg_resolution: None,
            pruned: None,
            error: Some(error.into()),
        }
    }

    /// Serializes the record as one NDJSON line (no trailing newline).
    /// Every key is always present.
    pub fn to_json(&self) -> String {
        fn opt_str(v: Option<&str>) -> String {
            let mut out = String::new();
            match v {
                Some(s) => json_string(&mut out, s),
                None => out.push_str("null"),
            }
            out
        }
        fn opt_num(v: Option<impl std::fmt::Display>) -> String {
            match v {
                Some(n) => n.to_string(),
                None => "null".to_string(),
            }
        }
        let confidence = match self.confidence {
            // Bit-exact float carriage, same convention as the artifact
            // format: hex f32 bits in a string.
            Some(c) => format!("\"{:08x}\"", c.to_bits()),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"id\":{id},\"design\":{design},\"status\":\"{status}\",",
                "\"degrade_reason\":{degrade},\"t_p_fallback\":{fallback},",
                "\"tier\":{tier},\"confidence\":{confidence},\"action\":{action},",
                "\"resolution\":{resolution},\"atpg_resolution\":{atpg},",
                "\"pruned\":{pruned},\"error\":{error}}}"
            ),
            id = opt_str(Some(&self.id)),
            design = opt_str(Some(&self.design)),
            status = self.status.as_str(),
            degrade = opt_str(self.degrade_reason),
            fallback = match self.t_p_fallback {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            tier = opt_num(self.tier),
            confidence = confidence,
            action = opt_str(self.action),
            resolution = opt_num(self.resolution),
            atpg = opt_num(self.atpg_resolution),
            pruned = opt_num(self.pruned),
            error = opt_str(self.error.as_deref()),
        )
    }
}

/// Keys every response record must carry, in wire order (the protocol's
/// totality contract; tests and clients can assert against this).
pub const RESPONSE_KEYS: [&str; 12] = [
    "id",
    "design",
    "status",
    "degrade_reason",
    "t_p_fallback",
    "tier",
    "confidence",
    "action",
    "resolution",
    "atpg_resolution",
    "pruned",
    "error",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parses_and_requires_all_keys() {
        let req = parse_request(
            r#"{"id":"chip-1","design":"aes/Syn-1","log":"fail pattern 3 obs 9\nfail pattern 4 obs 2"}"#,
        )
        .expect("well-formed request");
        assert_eq!(req.id, "chip-1");
        assert_eq!(req.design, "aes/Syn-1");
        assert_eq!(req.log, "fail pattern 3 obs 9\nfail pattern 4 obs 2");

        let deep = format!(
            r#"{{"id":"a","design":"d","log":"l","x":{}}}"#,
            "[".repeat(100_000)
        );
        for bad in [
            r#"{"design":"d","log":"l"}"#,
            r#"{"id":"a","log":"l"}"#,
            r#"{"id":"a","design":"d"}"#,
            r#"{"id":"","design":"d","log":"l"}"#,
            r#"{"id":null,"design":"d","log":"l"}"#,
            "not json",
            "",
            "null",
            "[1]",
            r#"{"k":1}"#,
            r#"{"id":"a","design":"d","log":"l","k":1}"#,
            r#"{"id":"a","design":"d","log":"l","k":["x"]}"#,
            r#"{"id":"a","design":"d","log":"l","k":{}}"#,
            r#"{"id":"\u+041","design":"d","log":"l"}"#,
            r#"{"id":"a","id":"b","design":"d","log":"l"}"#,
            &deep,
        ] {
            assert!(
                parse_request(bad).is_err(),
                "must reject {:?}",
                bad.get(..60).unwrap_or(bad)
            );
        }
    }

    #[test]
    fn non_ascii_logs_parse_in_linear_time() {
        // 256 KiB of a two-byte character: a reader that revisits the
        // rest of the line at each one takes many seconds here.
        let log = "é".repeat(128 << 10);
        let line = format!(r#"{{"id":"a","design":"d","log":"{log}"}}"#);
        let start = std::time::Instant::now();
        let req = parse_request(&line).expect("well-formed request");
        let took = start.elapsed();
        assert_eq!(req.log, log);
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let req = parse_request(r#"{"id":"a","lot":"7","note":null,"design":"d","log":"l"}"#)
            .expect("extra keys tolerated");
        assert_eq!(req.id, "a");
    }

    #[test]
    fn every_record_carries_every_key() {
        let full = Response {
            id: "a".to_string(),
            design: "aes/Syn-1".to_string(),
            status: Status::Degraded,
            degrade_reason: Some("empty_subgraph"),
            t_p_fallback: Some(false),
            tier: Some(1),
            confidence: Some(0.75),
            action: Some("reordered"),
            resolution: Some(4),
            atpg_resolution: Some(9),
            pruned: Some(0),
            error: None,
        };
        let rejected = Response::rejected("?", "?", "parse error: missing `id`");
        for r in [&full, &rejected] {
            let line = r.to_json();
            for key in RESPONSE_KEYS {
                assert!(
                    line.contains(&format!("\"{key}\":")),
                    "record must carry `{key}`: {line}"
                );
            }
        }
        assert!(full
            .to_json()
            .contains("\"degrade_reason\":\"empty_subgraph\""));
        assert!(full.to_json().contains("\"t_p_fallback\":false"));
        assert!(rejected.to_json().contains("\"degrade_reason\":null"));
        assert!(rejected.to_json().contains("\"t_p_fallback\":null"));
        assert!(rejected.to_json().contains("\"status\":\"rejected\""));
    }

    #[test]
    fn confidence_is_bit_exact_hex() {
        let mut r = Response::rejected("a", "d", "x");
        r.confidence = Some(0.75);
        assert!(r
            .to_json()
            .contains(&format!("\"{:08x}\"", 0.75f32.to_bits())));
    }
}
