//! The specs are checkable: the tag tables printed in
//! `docs/ondisk-formats.md` and `docs/wire-protocol.md` must equal the
//! codec's constants, and the frame-type table must equal
//! `Frame::frame_type`. A spec that drifts from the code fails here.

use std::path::Path;

use shark_common::codec::{TypeTable, DISK_TYPE_TAGS, VALUE_TAGS, WIRE_TYPE_CODES};
use shark_common::Schema;
use shark_server::net::frame::Frame;

const ONDISK: &str = "ondisk-formats.md";
const WIRE: &str = "wire-protocol.md";

fn doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The body rows of the first table after the line `heading`, as trimmed
/// cells (the header row and the separator are skipped).
fn table(doc_name: &str, heading: &str) -> Vec<Vec<String>> {
    let text = doc(doc_name);
    let rows: Vec<Vec<String>> = text
        .lines()
        .skip_while(|l| l.trim() != heading)
        .skip(1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_string())
                .collect()
        })
        .collect();
    assert!(rows.len() > 2, "{doc_name}: no table under {heading:?}");
    rows[2..].to_vec()
}

/// `(tag, first word of column `col`)` for every row, backticks dropped.
fn tagged(rows: &[Vec<String>], col: usize) -> Vec<(u8, String)> {
    rows.iter()
        .map(|row| {
            let tag = row[0].parse().unwrap_or_else(|_| panic!("tag in {row:?}"));
            let name = row[col].split_whitespace().next().unwrap_or("");
            (tag, name.trim_matches('`').to_string())
        })
        .collect()
}

fn expected(table: &TypeTable) -> Vec<(u8, String)> {
    table
        .iter()
        .enumerate()
        .map(|(tag, dt)| (tag as u8, format!("{dt:?}")))
        .collect()
}

#[test]
fn value_tag_tables_match_the_codec() {
    for (doc_name, heading) in [(ONDISK, "### Value tags"), (WIRE, "### Values")] {
        let rows = table(doc_name, heading);
        assert_eq!(tagged(&rows, 1), expected(&VALUE_TAGS), "{doc_name}");
    }
}

#[test]
fn both_data_type_tables_match_the_codec() {
    for doc_name in [ONDISK, WIRE] {
        let rows = table(doc_name, "### Data-type tags");
        assert_eq!(rows[0].len(), 3, "{doc_name}: disk and wire side by side");
        assert_eq!(tagged(&rows, 1), expected(&DISK_TYPE_TAGS), "{doc_name}");
        assert_eq!(tagged(&rows, 2), expected(&WIRE_TYPE_CODES), "{doc_name}");
    }
}

#[test]
fn frame_type_table_matches_frame_type() {
    let frames = [
        Frame::Hello {
            token: String::new(),
            tenant: String::new(),
        },
        Frame::HelloOk {
            session_id: 0,
            version: 0,
        },
        Frame::Query { sql: String::new() },
        Frame::Prepare { sql: String::new() },
        Frame::Prepared {
            statement_id: 0,
            fingerprint: 0,
        },
        Frame::Execute { statement_id: 0 },
        Frame::ResultSchema {
            schema: Schema::new(Vec::new()),
        },
        Frame::ResultBatch { rows: Vec::new() },
        Frame::QueryDone {
            rows: 0,
            partitions: 0,
            plan_cache_hit: false,
            sim_seconds: 0.0,
            cancelled: false,
        },
        Frame::Error {
            kind: String::new(),
            message: String::new(),
        },
        Frame::Cancel,
        Frame::Close,
    ];
    let mut code: Vec<(u8, String)> = frames
        .iter()
        .map(|f| {
            let debug = format!("{f:?}");
            let name = debug.split(|c: char| !c.is_alphanumeric()).next();
            (f.frame_type(), name.unwrap_or("").to_string())
        })
        .collect();
    code.sort();
    assert_eq!(tagged(&table(WIRE, "## Frame types"), 1), code);
}
