//! Shared pieces of the WALRUS benchmark: deterministic inputs and op
//! plans ([`inputs`]), the load generator's own HTTP client ([`http`]), a
//! small JSON reader for server answers ([`json`]), and statistics plus the
//! result-line format ([`report`]).
//!
//! Nothing here touches an engine crate other than `walrus-imagery` (image
//! synthesis), so the `e2e` binary keeps building when engine signatures
//! change; only `src/bin/layers.rs` calls into the engine.

pub mod http;
pub mod inputs;
pub mod json;
pub mod report;

/// `(image id, similarity bits)` per match of a `/query` answer, in rank
/// order: what rankings are compared by.
pub type Ranking = Vec<(u64, u64)>;

/// The ranking in a parsed `/query` answer, if it has the expected shape.
pub fn ranking(answer: &json::Value) -> Option<Ranking> {
    answer
        .get("matches")?
        .as_array()?
        .iter()
        .map(|m| Some((m.get("id")?.as_u64()?, m.get("similarity_bits")?.as_u64()?)))
        .collect()
}

/// The process arguments as `--flag value` pairs.
pub fn cli_flags() -> Result<Vec<(String, String)>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    argv.chunks(2)
        .map(|pair| match pair {
            [flag, value] => Ok((flag.clone(), value.clone())),
            _ => Err(format!("{} needs a value", pair[0])),
        })
        .collect()
}
