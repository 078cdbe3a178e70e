//! `BENCH_pairs.json` holds one row per measured claim, appended by
//! `tools/prof/pairs.py` and never by hand. Each row keeps every pair's two
//! values, so everything else in it — the pairs the change won, the
//! median ratio, the parent's IQR, min / p10 / median per side and the
//! verdict — can be recomputed from the row alone. This test does that
//! for every row, so a hand-edited number or verdict fails, and first
//! runs the check against a planted row that must fail it: a `signal` on
//! 6 of 10 pairs.
//!
//! The verdict is ROADMAP lesson (i)'s: `signal` when the row has at least
//! 10 pairs, the change is better (lower) in at least 9 of every 10, and
//! its median is lower than the parent's by more than the parent's
//! interquartile range; `noise` otherwise. Quantiles interpolate linearly
//! between closest ranks, as `pairs.py` computes them.

use std::collections::BTreeMap;

/// A JSON value: just enough of JSON for the file.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        match p.at == p.text.len() {
            true => Ok(value),
            false => Err(format!("trailing bytes at {}", p.at)),
        }
    }

    fn space(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        match self.text.get(self.at) {
            Some(&b) if b == byte => {
                self.at += 1;
                Ok(())
            }
            _ => Err(format!("expected `{}` at {}", byte as char, self.at)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        let rest = &self.text[self.at..];
        for (word, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(value);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.space();
                if self.text.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    if self.text.get(self.at) == Some(&b',') {
                        self.at += 1;
                        continue;
                    }
                    self.eat(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = BTreeMap::new();
                self.space();
                if self.text.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.insert(key, self.value()?);
                    self.space();
                    if self.text.get(self.at) == Some(&b',') {
                        self.at += 1;
                        continue;
                    }
                    self.eat(b'}')?;
                    return Ok(Json::Obj(fields));
                }
            }
            _ => {
                let len = rest
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    .count();
                let number = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                self.at += len;
                number
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{number}` at {}", self.at))
            }
        }
    }

    /// A string without escapes other than `\"` and `\\` (the file has
    /// none: revisions, names and numbers).
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.text.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.at += 1;
                    match self.text.get(self.at) {
                        Some(&b @ (b'"' | b'\\')) => out.push(b),
                        _ => return Err(format!("unsupported escape at {}", self.at)),
                    }
                }
                Some(&b) => out.push(b),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

impl Json {
    fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields.get(key).ok_or_else(|| format!("no `{key}`")),
            _ => Err(format!("`{key}` of a non-object")),
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Json::Num(x) => Ok(*x),
            other => Err(format!("`{key}` is {other:?}, not a number")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("`{key}` is {other:?}, not a string")),
        }
    }
}

/// Linear interpolation between closest ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = (xs.len() - 1) as f64 * q;
    let lo = pos as usize;
    let hi = (lo + 1).min(xs.len() - 1);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Lesson (i)'s verdict from a row's own numbers.
fn verdict(
    pairs: usize,
    won: usize,
    parent_median: f64,
    change_median: f64,
    iqr: f64,
) -> &'static str {
    let gap = parent_median - change_median;
    match pairs >= 10 && 10 * won >= 9 * pairs && gap > iqr {
        true => "signal",
        false => "noise",
    }
}

/// Equal up to the last bits a float's printing and reparsing may move.
fn same(stored: f64, computed: f64) -> bool {
    (stored - computed).abs() <= 1e-12 * computed.abs().max(1e-300)
}

/// Check one row: its fields are there and every derived one follows from
/// its pairs.
fn check_row(row: &Json) -> Result<(), String> {
    for key in ["parent", "change"] {
        let rev = row.str(key)?;
        if rev.len() != 40 || !rev.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("`{key}` is not a full revision: {rev}"));
        }
    }
    for key in ["workload", "metric", "mode"] {
        row.str(key)?;
    }
    for key in ["seed", "seconds"] {
        row.num(key)?;
    }
    let Json::Arr(runs) = row.get("runs")? else {
        return Err("`runs` is not a list".into());
    };
    let mut parent = Vec::new();
    let mut change = Vec::new();
    for run in runs {
        match run {
            Json::Arr(pair) => match pair[..] {
                [Json::Num(p), Json::Num(c)] => {
                    parent.push(p);
                    change.push(c);
                }
                _ => return Err(format!("a pair is not two numbers: {pair:?}")),
            },
            other => return Err(format!("a pair is {other:?}")),
        }
    }
    if parent.is_empty() || row.num("pairs")? != parent.len() as f64 {
        return Err(format!("`pairs` is not the {} pairs listed", parent.len()));
    }
    let won = parent.iter().zip(&change).filter(|(p, c)| c < p).count();
    let ratios: Vec<f64> = parent.iter().zip(&change).map(|(p, c)| c / p).collect();
    let iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25);
    let mut want = vec![
        ("change_won", won as f64, row.num("change_won")?),
        (
            "median_ratio",
            quantile(&ratios, 0.5),
            row.num("median_ratio")?,
        ),
        ("parent_iqr", iqr, row.num("parent_iqr")?),
    ];
    for (side, values) in [("parent_stats", &parent), ("change_stats", &change)] {
        let stats = row.get(side)?;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        want.push((side, min, stats.num("min")?));
        want.push((side, quantile(values, 0.1), stats.num("p10")?));
        want.push((side, quantile(values, 0.5), stats.num("median")?));
    }
    for (what, computed, stored) in want {
        if !same(stored, computed) {
            return Err(format!(
                "`{what}` reads {stored}, its pairs give {computed}"
            ));
        }
    }
    let computed = verdict(
        parent.len(),
        won,
        quantile(&parent, 0.5),
        quantile(&change, 0.5),
        iqr,
    );
    match row.str("verdict")? {
        v if v == computed => Ok(()),
        v => Err(format!("verdict `{v}`, its pairs give `{computed}`")),
    }
}

/// The committed file's rows, each checked; the error names the row.
fn check_file(text: &str) -> Result<usize, String> {
    let Json::Arr(rows) = Parser::parse(text)? else {
        return Err("the file is not a list of rows".into());
    };
    for (i, row) in rows.iter().enumerate() {
        check_row(row).map_err(|e| format!("row {i}: {e}"))?;
    }
    Ok(rows.len())
}

/// A row as `pairs.py` writes it, over `runs`, with `verdict`.
fn planted(runs: &[[f64; 2]], verdict: &str) -> String {
    let parent: Vec<f64> = runs.iter().map(|r| r[0]).collect();
    let change: Vec<f64> = runs.iter().map(|r| r[1]).collect();
    let ratios: Vec<f64> = runs.iter().map(|r| r[1] / r[0]).collect();
    let won = runs.iter().filter(|r| r[1] < r[0]).count();
    let stats = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            r#"{{"min": {min:?}, "p10": {:?}, "median": {:?}}}"#,
            quantile(v, 0.1),
            quantile(v, 0.5)
        )
    };
    let pairs: Vec<String> = runs
        .iter()
        .map(|r| format!("[{:?}, {:?}]", r[0], r[1]))
        .collect();
    format!(
        r#"[{{"parent": "{rev}", "change": "{rev}", "workload": "object-storm", "metric": "peak_rss_mb", "seed": 42, "seconds": 5, "pairs": {n}, "mode": "pinned", "env": {{}}, "runs": [{pairs}], "change_won": {won}, "median_ratio": {ratio:?}, "parent_iqr": {iqr:?}, "parent_stats": {ps}, "change_stats": {cs}, "verdict": "{verdict}"}}]"#,
        rev = "0".repeat(40),
        n = runs.len(),
        pairs = pairs.join(", "),
        ratio = quantile(&ratios, 0.5),
        iqr = quantile(&parent, 0.75) - quantile(&parent, 0.25),
        ps = stats(&parent),
        cs = stats(&change),
    )
}

#[test]
fn a_hand_edited_signal_on_six_of_ten_pairs_fails() {
    // The change lower in 6 of 10 pairs, by far more than the parent's
    // spread in each it won: lesson (i) says noise.
    let runs: Vec<[f64; 2]> = (0..10)
        .map(|i| {
            let parent = 12.0 + 0.01 * i as f64;
            [parent, if i < 6 { parent - 1.0 } else { parent + 0.5 }]
        })
        .collect();
    assert_eq!(check_file(&planted(&runs, "noise")), Ok(1));
    let edited = check_file(&planted(&runs, "signal"));
    assert_eq!(
        edited,
        Err("row 0: verdict `signal`, its pairs give `noise`".into())
    );
    // A hand-edited count fails too, whatever the verdict says.
    let counted = planted(&runs, "noise").replace(r#""change_won": 6"#, r#""change_won": 9"#);
    assert!(check_file(&counted).is_err());
    // Ten wins by more than the IQR is a signal, and says so.
    let won: Vec<[f64; 2]> = runs.iter().map(|r| [r[0], r[0] - 1.0]).collect();
    assert_eq!(check_file(&planted(&won, "signal")), Ok(1));
}

#[test]
fn every_committed_row_follows_from_its_own_pairs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_pairs.json");
    let text = std::fs::read_to_string(path).expect("BENCH_pairs.json is committed");
    match check_file(&text) {
        Ok(rows) => assert!(rows > 0, "no rows"),
        Err(e) => panic!("BENCH_pairs.json {e}"),
    }
}
