//! The `dprof diff` subcommand: load two `dprof-report/v1` JSON documents, reduce each
//! to a [`ReportSummary`], run the core diff engine, and render the result as a text
//! table or a `dprof-diff/v1` JSON document.

use crate::args::{DiffOptions, Format};
use crate::merge::{merge_shards, summary_from_merged};
use dprof::core::report::diff::{diff, ReportDiff, ReportSummary};
use dprof::core::schema::{shard_from_report_json, Json, JsonRef, JsonTape};
use std::fmt::Write as _;

/// JSON schema identifier of the diff document.
pub const DIFF_SCHEMA: &str = dprof::core::schema::DIFF_V1;

/// Loads a report file and reduces it to the diff engine's per-type summary, reading
/// it the way the collector ingests a push: the document becomes one shard, and every
/// derived column is recomputed from its merge.
///
/// Errors are one-line and actionable: they name the file and what is wrong with it.
pub fn load_summary(path: &str) -> Result<ReportSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read report '{path}': {e}"))?;
    let tape = JsonTape::parse(&text).map_err(|e| {
        format!("'{path}' is not valid JSON ({e}); expected a dprof -f json report")
    })?;
    let shard = shard_from_report_json(&tape, 0).map_err(|e| format!("'{path}': {e}"))?;
    // The collector accepts a report without the view a diff ranks by; a diff does not.
    let rows = tape.root().get("data_profile").and_then(|p| p.get("rows"));
    if rows.and_then(JsonRef::as_array).is_none() {
        return Err(format!(
            "'{path}': report has no data_profile section; re-run dprof with -v data-profile \
             (or all views)"
        ));
    }
    Ok(summary_from_merged(&merge_shards(&[&shard])))
}

/// The top-ranked candidate of a `dprof-whatif/v1` document, attached to a diff via
/// `--whatif` so the verdict carries predicted vs. realized gain.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted best fix spec.
    pub fix: String,
    /// Its predicted fractional throughput gain.
    pub gain: f64,
    /// Whether the prediction passed the block-vote confidence gate.
    pub confident: bool,
}

/// Loads the rank-1 candidate from a `dprof-whatif/v1` file.
pub fn load_prediction(path: &str) -> Result<Prediction, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read whatif file '{path}': {e}"))?;
    let tape = JsonTape::parse(&text).map_err(|e| {
        format!("'{path}' is not valid JSON ({e}); expected a dprof whatif -f json document")
    })?;
    let doc = tape.root();
    match doc.get("schema").and_then(JsonRef::as_str) {
        Some(crate::whatif::WHATIF_SCHEMA) => {}
        other => {
            return Err(format!(
                "'{path}': schema is {other:?}, expected '{}' (generate it with \
                 dprof whatif <trace> --auto -f json)",
                crate::whatif::WHATIF_SCHEMA
            ))
        }
    }
    let best = doc
        .get("candidates")
        .and_then(JsonRef::as_array)
        .and_then(|mut c| c.next())
        .ok_or_else(|| format!("'{path}': whatif document has no candidates"))?;
    Ok(Prediction {
        fix: best
            .get("fix")
            .and_then(JsonRef::as_str)
            .ok_or_else(|| format!("'{path}': candidate without a 'fix' field"))?
            .to_string(),
        gain: best
            .get("predicted_gain")
            .and_then(JsonRef::as_f64)
            .ok_or_else(|| format!("'{path}': candidate without a 'predicted_gain' field"))?,
        confident: best
            .get("confident")
            .and_then(JsonRef::as_bool)
            .unwrap_or(false),
    })
}

/// Runs the full `dprof diff` subcommand and returns the process exit code.
pub fn run_diff(options: &DiffOptions) -> i32 {
    let (a, b) = match (load_summary(&options.a), load_summary(&options.b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(focus) = &options.focus {
        if a.get(focus).is_none() && b.get(focus).is_none() {
            eprintln!(
                "error: focus type '{focus}' appears in neither report (check --focus \
                 against the data_profile rows)"
            );
            return 1;
        }
    }
    let prediction = match &options.whatif {
        Some(path) => match load_prediction(path) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        },
        None => None,
    };
    let result = diff(&a, &b, options.focus.as_deref());
    let rendered = match options.format {
        Format::Text => render_diff_text(&result, options, prediction.as_ref()),
        Format::Json => render_diff_json(&result, options, prediction.as_ref()).to_pretty_string(),
    };
    crate::emit(&rendered, &options.output)
}

fn fmt_rank(rank: Option<usize>) -> String {
    match rank {
        Some(r) => format!("#{}", r + 1),
        None => "-".to_string(),
    }
}

/// Renders the human-readable diff.
pub fn render_diff_text(
    d: &ReportDiff,
    options: &DiffOptions,
    prediction: Option<&Prediction>,
) -> String {
    let mut out = String::new();
    writeln!(out, "dprof diff — {} vs {}", options.a, options.b).unwrap();
    writeln!(
        out,
        "focus type {}: miss share {:.2}% -> {:.2}%, miss samples {} -> {}",
        d.focus, d.focus_share_a, d.focus_share_b, d.focus_misses_a, d.focus_misses_b
    )
    .unwrap();
    match &d.moved_to {
        Some(to) => writeln!(out, "verdict: bottleneck {} (to {to})", d.verdict).unwrap(),
        None => writeln!(out, "verdict: bottleneck {}", d.verdict).unwrap(),
    }
    if let Some(gain) = d.realized_gain {
        writeln!(
            out,
            "realized gain: {:+.2}% (throughput of B over A)",
            100.0 * gain
        )
        .unwrap();
    }
    if let Some(p) = prediction {
        let error = d
            .realized_gain
            .map(|g| format!(", {:.2} pts off realized", 100.0 * (p.gain - g).abs()))
            .unwrap_or_default();
        writeln!(
            out,
            "predicted gain ({}): {:+.2}%{error}{}",
            p.fix,
            100.0 * p.gain,
            if p.confident { "" } else { " [not confident]" }
        )
        .unwrap();
    }
    writeln!(
        out,
        "\n{:<18} {:>16} {:>8} {:>16} {:>22} {:>12} {:>14}",
        "Type name",
        "%L1 miss A->B",
        "Δpts",
        "misses A->B",
        "dominant A->B",
        "WS rank",
        "crossings"
    )
    .unwrap();
    writeln!(out, "{}", "-".repeat(112)).unwrap();
    for t in d.types.iter().take(options.top) {
        writeln!(
            out,
            "{:<18} {:>7.2}%->{:>6.2}% {:>+8.2} {:>7}->{:<7} {:>10}->{:<10} {:>5}->{:<5} {:>6}->{:<6}",
            t.name,
            t.pct_a,
            t.pct_b,
            t.delta_pct,
            t.miss_samples_a,
            t.miss_samples_b,
            t.dominant_a.unwrap_or("-"),
            t.dominant_b.unwrap_or("-"),
            fmt_rank(t.ws_rank_a),
            fmt_rank(t.ws_rank_b),
            t.core_crossings_a,
            t.core_crossings_b,
        )
        .unwrap();
    }
    if d.types.len() > options.top {
        writeln!(out, "... {} more type(s)", d.types.len() - options.top).unwrap();
    }
    if d.is_neutral() {
        writeln!(out, "\nreports are identical: no per-type deltas").unwrap();
    }
    out
}

/// Builds the `dprof-diff/v1` JSON document.
pub fn render_diff_json(
    d: &ReportDiff,
    options: &DiffOptions,
    prediction: Option<&Prediction>,
) -> Json {
    let rank_json = |rank: Option<usize>| match rank {
        Some(r) => Json::num(r as u32),
        None => Json::Null,
    };
    Json::obj(vec![
        ("schema", Json::str(DIFF_SCHEMA)),
        ("a", Json::str(&options.a)),
        ("b", Json::str(&options.b)),
        ("focus", Json::str(&d.focus)),
        ("verdict", Json::str(d.verdict.key())),
        (
            "moved_to",
            d.moved_to
                .as_ref()
                .map(|s| Json::str(s.as_str()))
                .unwrap_or(Json::Null),
        ),
        ("focus_share_a", Json::num(d.focus_share_a)),
        ("focus_share_b", Json::num(d.focus_share_b)),
        ("focus_misses_a", Json::num(d.focus_misses_a as f64)),
        ("focus_misses_b", Json::num(d.focus_misses_b as f64)),
        (
            "realized_gain",
            d.realized_gain.map(Json::num).unwrap_or(Json::Null),
        ),
        (
            "predicted_fix",
            prediction.map(|p| Json::str(&p.fix)).unwrap_or(Json::Null),
        ),
        (
            "predicted_gain",
            prediction.map(|p| Json::num(p.gain)).unwrap_or(Json::Null),
        ),
        (
            "prediction_confident",
            prediction
                .map(|p| Json::Bool(p.confident))
                .unwrap_or(Json::Null),
        ),
        (
            "prediction_error",
            prediction
                .and_then(|p| d.realized_gain.map(|g| Json::num((p.gain - g).abs())))
                .unwrap_or(Json::Null),
        ),
        ("neutral", Json::Bool(d.is_neutral())),
        (
            "types",
            Json::Arr(
                d.types
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("type", Json::str(&*t.name)),
                            ("in_a", Json::Bool(t.in_a)),
                            ("in_b", Json::Bool(t.in_b)),
                            ("pct_of_l1_misses_a", Json::num(t.pct_a)),
                            ("pct_of_l1_misses_b", Json::num(t.pct_b)),
                            ("delta_pct", Json::num(t.delta_pct)),
                            ("miss_samples_a", Json::num(t.miss_samples_a as f64)),
                            ("miss_samples_b", Json::num(t.miss_samples_b as f64)),
                            ("delta_miss_samples", Json::num(t.delta_miss_samples as f64)),
                            ("delta_invalidation", Json::num(t.delta_invalidation)),
                            ("delta_conflict", Json::num(t.delta_conflict)),
                            ("delta_capacity", Json::num(t.delta_capacity)),
                            (
                                "dominant_a",
                                t.dominant_a.map(Json::str).unwrap_or(Json::Null),
                            ),
                            (
                                "dominant_b",
                                t.dominant_b.map(Json::str).unwrap_or(Json::Null),
                            ),
                            ("ws_rank_a", rank_json(t.ws_rank_a)),
                            ("ws_rank_b", rank_json(t.ws_rank_b)),
                            (
                                "delta_working_set_bytes",
                                Json::num(t.delta_working_set_bytes),
                            ),
                            ("core_crossings_a", Json::num(t.core_crossings_a as f64)),
                            ("core_crossings_b", Json::num(t.core_crossings_b as f64)),
                            (
                                "delta_core_crossings",
                                Json::num(t.delta_core_crossings as f64),
                            ),
                            ("bounce_a", Json::Bool(t.bounce_a)),
                            ("bounce_b", Json::Bool(t.bounce_b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_doc(rows: &[(&str, f64, u64)]) -> Json {
        Json::obj(vec![
            ("schema", Json::str(crate::render::SCHEMA)),
            (
                "data_profile",
                Json::obj(vec![(
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|(name, pct, misses)| {
                                Json::obj(vec![
                                    ("type", Json::str(*name)),
                                    ("pct_of_l1_misses", Json::num(*pct)),
                                    ("working_set_bytes", Json::num(*pct * 10.0)),
                                    ("bounce", Json::Bool(false)),
                                    ("samples", Json::num(*misses as f64 * 2.0)),
                                    ("l1_miss_samples", Json::num(*misses as f64)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            ),
            (
                "miss_classification",
                Json::obj(vec![(
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|(name, _, misses)| {
                                Json::obj(vec![
                                    ("type", Json::str(*name)),
                                    ("miss_samples", Json::num(*misses as f64)),
                                    (
                                        "fractions",
                                        Json::obj(vec![
                                            ("invalidation", Json::num(0.7)),
                                            ("conflict", Json::num(0.1)),
                                            ("capacity", Json::num(0.2)),
                                        ]),
                                    ),
                                    ("dominant", Json::str("invalidation")),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            ),
        ])
    }

    /// [`load_summary`] of `doc` written to a file of its own.
    fn load(name: &str, doc: &Json) -> Result<ReportSummary, String> {
        let path = std::env::temp_dir().join(format!(
            "dprof-diff-unit-{}-{name}.json",
            std::process::id()
        ));
        std::fs::write(&path, doc.to_pretty_string()).unwrap();
        let summary = load_summary(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        summary
    }

    #[test]
    fn summary_round_trips_from_report_json() {
        let doc = report_doc(&[("skbuff", 60.0, 600), ("payload", 40.0, 400)]);
        let summary = load("round-trip", &doc).unwrap();
        assert_eq!(summary.types.len(), 2);
        let skb = summary.get("skbuff").unwrap();
        assert_eq!(skb.pct_of_l1_misses, 60.0);
        assert_eq!(skb.miss_samples, 600);
        assert_eq!(skb.dominant_miss, Some("invalidation"));
    }

    #[test]
    fn schema_mismatch_and_missing_sections_are_rejected() {
        let bad = Json::obj(vec![("schema", Json::str("other/v9"))]);
        assert!(load("bad", &bad).unwrap_err().contains("other/v9"));
        let none = Json::obj(vec![("hello", Json::num(1u32))]);
        assert!(load("none", &none)
            .unwrap_err()
            .contains("missing 'schema'"));
        let no_profile = Json::obj(vec![("schema", Json::str(crate::render::SCHEMA))]);
        assert!(load("no-profile", &no_profile)
            .unwrap_err()
            .contains("no data_profile section"));
    }

    #[test]
    fn self_diff_renders_neutral_in_both_formats() {
        let doc = report_doc(&[("skbuff", 60.0, 600), ("payload", 40.0, 400)]);
        let summary = load("self-diff", &doc).unwrap();
        let d = dprof::core::report::diff::diff(&summary, &summary, None);
        assert!(d.is_neutral());
        let options = DiffOptions {
            a: "a.json".into(),
            b: "b.json".into(),
            focus: None,
            format: Format::Text,
            top: 8,
            output: None,
            whatif: None,
        };
        let text = render_diff_text(&d, &options, None);
        assert!(text.contains("verdict: bottleneck unchanged"));
        assert!(text.contains("reports are identical"));
        let json = render_diff_json(&d, &options, None);
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("unchanged")
        );
        assert_eq!(json.get("neutral").and_then(Json::as_bool), Some(true));
        // The document round-trips through the parser.
        assert_eq!(
            Json::parse(&json.to_pretty_string()).unwrap().get("focus"),
            json.get("focus")
        );
    }
}
