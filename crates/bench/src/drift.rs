//! `--check FILE` support shared by the bench bins: read a committed
//! `BENCH_*.json` and list every deterministic field a fresh run moved.

use crate::Json;

/// Read and parse the committed record at `path`. Bins call this before
/// their run, since the run rewrites the file in the working directory.
pub fn read_committed(path: &str) -> Result<Json, String> {
    std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t))
}

/// Append to `out` the path of every field where `fresh` and `committed`
/// differ, skipping object keys for which `ignored` holds. Leaves compare
/// by rendered text, so a float and the integer it prints as are equal.
/// Array items are named by their `name`, `family` or `threshold` field,
/// else by index.
pub fn drift(
    path: &str,
    fresh: &Json,
    committed: &Json,
    ignored: &dyn Fn(&str) -> bool,
    out: &mut Vec<String>,
) {
    match (fresh, committed) {
        (Json::Obj(a), Json::Obj(b)) => {
            for (key, x) in a.iter().filter(|(k, _)| !ignored(k)) {
                match committed.get(key) {
                    Some(y) => drift(&format!("{path}.{key}"), x, y, ignored, out),
                    None => out.push(format!("{path}.{key}: not in the committed file")),
                }
            }
            for (key, _) in b.iter().filter(|(k, _)| !ignored(k)) {
                if fresh.get(key).is_none() {
                    out.push(format!("{path}.{key}: not in the fresh run"));
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) if a.len() != b.len() => {
            out.push(format!("{path}: {} items (committed {})", a.len(), b.len()));
        }
        (Json::Arr(a), Json::Arr(b)) => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                let name = ["name", "family", "threshold"]
                    .iter()
                    .find_map(|k| x.get(k).and_then(Json::as_str))
                    .map_or(i.to_string(), str::to_string);
                drift(&format!("{path}[{name}]"), x, y, ignored, out);
            }
        }
        _ => {
            let (x, y) = (fresh.render(), committed.render());
            if x != y {
                out.push(format!("{path}: {} (committed {})", x.trim_end(), y.trim_end()));
            }
        }
    }
}

/// Print every drift of `fresh` from the committed record at `path` to
/// standard error; returns `true` if there was none.
pub fn report_drift(
    path: &str,
    fresh: &Json,
    committed: &Json,
    ignored: &dyn Fn(&str) -> bool,
) -> bool {
    let mut diffs = Vec::new();
    drift("", fresh, committed, ignored, &mut diffs);
    report(path, &diffs)
}

/// Print `diffs`, the drifts from the committed record at `path`, to
/// standard error; returns `true` if there was none.
pub fn report(path: &str, diffs: &[String]) -> bool {
    for d in diffs {
        eprintln!("drift from {path}: {d}");
    }
    if !diffs.is_empty() {
        eprintln!("{} deterministic fields differ from {path}", diffs.len());
    }
    diffs.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(name: &str, pivots: u64, wall: f64) -> Json {
        Json::obj(vec![
            ("family", Json::Str(name.into())),
            ("pivots", Json::UInt(pivots)),
            ("wall_s", Json::Num(wall)),
        ])
    }

    #[test]
    fn reports_changed_fields_by_path_and_skips_ignored_keys() {
        let doc = |pivots, wall| {
            Json::obj(vec![(
                "families",
                Json::Arr(vec![family("no-cwnd", 10, 1.0), family("cwnd", pivots, wall)]),
            )])
        };
        let ignored = |k: &str| k == "wall_s";
        let mut out = Vec::new();
        drift("", &doc(5, 2.0), &doc(5, 9.0), &ignored, &mut out);
        assert!(out.is_empty(), "{out:?}");
        drift("", &doc(6, 2.0), &doc(5, 2.0), &ignored, &mut out);
        assert_eq!(out, vec![".families[cwnd].pivots: 6 (committed 5)".to_string()]);
    }

    #[test]
    fn reports_missing_keys_and_length_changes() {
        let ignored = |_: &str| false;
        let mut out = Vec::new();
        let a = Json::obj(vec![("x", Json::UInt(1)), ("items", Json::Arr(vec![Json::Null]))]);
        let b = Json::obj(vec![("y", Json::UInt(1)), ("items", Json::Arr(vec![]))]);
        drift("", &a, &b, &ignored, &mut out);
        assert_eq!(
            out,
            vec![
                ".x: not in the committed file".to_string(),
                ".items: 1 items (committed 0)".to_string(),
                ".y: not in the fresh run".to_string(),
            ]
        );
    }
}
