//! Answer checking against the in-process serial oracle: `lower_naive` at
//! DOP 1, encoded exactly as the server encodes a response.
//!
//! A statement with `ORDER BY` must match the oracle byte for byte. Any
//! other statement is compared as a multiset of rows: a Summary-BTree
//! range returns its rows in count order where the oracle's scan returns
//! OID order, and SQL leaves that order open.

use instn_query::lower::lower_naive;
use instn_query::SharedDatabase;
use instn_serve::{Response, WireRow};
use instn_sql::{lower_select, parse, Statement};

use crate::workload::{fnv1a, FNV_OFFSET};

/// Whether the statement fixes its row order.
pub fn ordered(statement: &str) -> bool {
    statement.to_ascii_uppercase().contains("ORDER BY")
}

/// The comparison digest of one response payload, or `None` when the
/// payload is not a row set (an error, or undecodable bytes).
pub fn digest(statement: &str, payload: &[u8]) -> Option<u64> {
    let Ok(Response::Rows { columns, rows }) = Response::decode(payload) else {
        return None;
    };
    if ordered(statement) {
        return Some(fnv1a(FNV_OFFSET, payload));
    }
    let mut encoded: Vec<Vec<u8>> = rows
        .into_iter()
        .map(|row| {
            Response::Rows {
                columns: Vec::new(),
                rows: vec![row],
            }
            .encode()
        })
        .collect();
    encoded.sort_unstable();
    let mut h = fnv1a(FNV_OFFSET, b"multiset");
    for c in &columns {
        h = fnv1a(h, c.as_bytes());
        h = fnv1a(h, b"\0");
    }
    for e in &encoded {
        h = fnv1a(h, &(e.len() as u64).to_le_bytes());
        h = fnv1a(h, e);
    }
    Some(h)
}

/// The oracle's encoded response for `statement` on the current state.
pub fn oracle_payload(shared: &SharedDatabase, statement: &str) -> Result<Vec<u8>, String> {
    let Ok(Statement::Select(sel)) = parse(statement) else {
        return Err(format!("oracle statement is not a SELECT: {statement}"));
    };
    let mut session = shared.session();
    session.exec_config.dop = 1;
    session.plan_cache.set_enabled(false);
    let (physical, columns) = session
        .try_with_ctx(|ctx| -> Result<_, String> {
            let lowered = lower_select(ctx.db, &sel).map_err(|e| e.to_string())?;
            let physical = lower_naive(ctx.db, &lowered.plan).map_err(|e| e.to_string())?;
            Ok((physical, lowered.columns))
        })
        .map_err(|e| e.to_string())??;
    let rows = session.execute(&physical).map_err(|e| e.to_string())?;
    Ok(Response::Rows {
        columns,
        rows: rows.iter().map(WireRow::from_tuple).collect(),
    }
    .encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use instn_storage::Value;

    fn payload(ids: &[i64]) -> Vec<u8> {
        Response::Rows {
            columns: vec!["id".into()],
            rows: ids
                .iter()
                .map(|&i| WireRow {
                    source: Some((0, i as u64)),
                    values: vec![Value::Int(i)],
                    summaries: Vec::new(),
                })
                .collect(),
        }
        .encode()
    }

    #[test]
    fn unordered_statements_compare_as_multisets() {
        let s = "SELECT id FROM Birds";
        assert_eq!(
            digest(s, &payload(&[1, 2, 3])),
            digest(s, &payload(&[3, 1, 2]))
        );
        assert_ne!(
            digest(s, &payload(&[1, 2, 3])),
            digest(s, &payload(&[1, 2, 2]))
        );
    }

    #[test]
    fn ordered_statements_compare_bytes() {
        let s = "SELECT id FROM Birds ORDER BY id";
        assert_ne!(digest(s, &payload(&[1, 2])), digest(s, &payload(&[2, 1])));
        assert_eq!(digest(s, &payload(&[1, 2])), digest(s, &payload(&[1, 2])));
    }

    #[test]
    fn errors_have_no_digest() {
        let err = Response::Text("nope".into()).encode();
        assert_eq!(digest("SELECT 1", &err), None);
    }
}
