//! The `dprof diff` subcommand: load two `dprof-report/v1` JSON documents, reduce each
//! to a [`ReportSummary`], run the core diff engine, and render the result as a text
//! table or a `dprof-diff/v1` JSON document.

use crate::args::{DiffOptions, Format};
use crate::merge::{merge_shards, summary_from_merged};
use dprof::core::report::diff::{diff, ReportDiff, ReportSummary};
use dprof::core::schema::{shard_from_report_json, JsonRef, JsonTape, JsonWriter};
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
        Format::Json => render_diff_json(&result, options, prediction.as_ref()),
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
    let (focus_a, focus_b) = (d.focus_a, d.focus_b);
    writeln!(
        out,
        "focus type {}: miss share {:.2}% -> {:.2}%, miss samples {} -> {}",
        d.focus,
        focus_a.pct_of_l1_misses,
        focus_b.pct_of_l1_misses,
        focus_a.miss_samples,
        focus_b.miss_samples
    )
    .unwrap();
    match d.moved_to {
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
        let (a, b) = (t.a, t.b);
        writeln!(
            out,
            "{:<18} {:>7.2}%->{:>6.2}% {:>+8.2} {:>7}->{:<7} {:>10}->{:<10} {:>5}->{:<5} {:>6}->{:<6}",
            t.name(),
            a.pct_of_l1_misses,
            b.pct_of_l1_misses,
            t.delta_pct(),
            a.miss_samples,
            b.miss_samples,
            a.dominant_miss.unwrap_or("-"),
            b.dominant_miss.unwrap_or("-"),
            fmt_rank(t.ws_rank_a()),
            fmt_rank(t.ws_rank_b()),
            a.core_crossings,
            b.core_crossings,
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

/// Writes the `dprof-diff/v1` JSON document.
pub fn render_diff_json(
    d: &ReportDiff,
    options: &DiffOptions,
    prediction: Option<&Prediction>,
) -> String {
    let opt_num = |w: &mut JsonWriter, n: Option<f64>| {
        match n {
            Some(n) => w.num(n),
            None => w.null(),
        };
    };
    let opt_str = |w: &mut JsonWriter, s: Option<&str>| {
        match s {
            Some(s) => w.str(s),
            None => w.null(),
        };
    };
    let count_delta = |a: u64, b: u64| (b as i64 - a as i64) as f64;
    let mut w = JsonWriter::default();
    w.open_obj();
    w.key("schema").str(DIFF_SCHEMA);
    w.key("a").str(&options.a).key("b").str(&options.b);
    w.key("focus").str(d.focus);
    w.key("verdict").str(d.verdict.key());
    opt_str(w.key("moved_to"), d.moved_to);
    w.key("focus_share_a").num(d.focus_a.pct_of_l1_misses);
    w.key("focus_share_b").num(d.focus_b.pct_of_l1_misses);
    w.key("focus_misses_a").num(d.focus_a.miss_samples as f64);
    w.key("focus_misses_b").num(d.focus_b.miss_samples as f64);
    opt_num(w.key("realized_gain"), d.realized_gain);
    opt_str(w.key("predicted_fix"), prediction.map(|p| p.fix.as_str()));
    opt_num(w.key("predicted_gain"), prediction.map(|p| p.gain));
    match prediction {
        Some(p) => w.key("prediction_confident").bool(p.confident),
        None => w.key("prediction_confident").null(),
    };
    let error = prediction.and_then(|p| d.realized_gain.map(|g| (p.gain - g).abs()));
    opt_num(w.key("prediction_error"), error);
    w.key("neutral").bool(d.is_neutral());
    w.key("types").open_arr();
    for t in &d.types {
        let (a, b) = (t.a, t.b);
        w.item().open_obj();
        w.key("type").str(t.name());
        w.key("in_a").bool(t.in_a).key("in_b").bool(t.in_b);
        w.key("pct_of_l1_misses_a").num(a.pct_of_l1_misses);
        w.key("pct_of_l1_misses_b").num(b.pct_of_l1_misses);
        w.key("delta_pct").num(t.delta_pct());
        w.key("miss_samples_a").num(a.miss_samples as f64);
        w.key("miss_samples_b").num(b.miss_samples as f64);
        w.key("delta_miss_samples")
            .num(count_delta(a.miss_samples, b.miss_samples));
        w.key("delta_invalidation")
            .num(b.invalidation - a.invalidation);
        w.key("delta_conflict").num(b.conflict - a.conflict);
        w.key("delta_capacity").num(b.capacity - a.capacity);
        opt_str(w.key("dominant_a"), a.dominant_miss);
        opt_str(w.key("dominant_b"), b.dominant_miss);
        opt_num(w.key("ws_rank_a"), t.ws_rank_a().map(|r| r as f64));
        opt_num(w.key("ws_rank_b"), t.ws_rank_b().map(|r| r as f64));
        w.key("delta_working_set_bytes")
            .num(b.working_set_bytes - a.working_set_bytes);
        w.key("core_crossings_a").num(a.core_crossings as f64);
        w.key("core_crossings_b").num(b.core_crossings as f64);
        w.key("delta_core_crossings")
            .num(count_delta(a.core_crossings, b.core_crossings));
        w.key("bounce_a").bool(a.bounce);
        w.key("bounce_b").bool(b.bounce);
        w.close_obj();
    }
    w.close_arr().close_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprof::core::schema::Json;

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
        assert_eq!(summary.types().len(), 2);
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
        // The document parses.
        let json = Json::parse(&render_diff_json(&d, &options, None)).unwrap();
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("unchanged")
        );
        assert_eq!(json.get("neutral").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("focus").and_then(Json::as_str), Some("skbuff"));
    }
}
