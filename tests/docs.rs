//! DESIGN.md and README.md name only what exists, and DESIGN.md stays
//! small.
//!
//! Each test reads the documents as committed and checks one kind of
//! name against the tree: repo files and `path:N–M` line ranges, CI
//! jobs, cited `suite.rs::test` and `module::fn` paths, and the
//! `DESIGN.md §N` sections that other files cite. A rename or a deletion
//! that leaves a document behind fails here, naming the document and the
//! stale name.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// DESIGN.md stays under this many bytes.
const DESIGN_LIMIT: usize = 50_000;

/// The documents whose names are checked.
const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// An inline code span ending in one of these names a repo file.
const FILE_EXTS: [&str; 9] = [
    ".rs", ".md", ".json", ".sh", ".yml", ".toml", ".py", ".patch", ".lock",
];

/// Path heads that name the standard library, not this repo.
const STD: [&str; 8] = [
    "std", "core", "alloc", "Vec", "String", "Option", "Box", "Arc",
];

/// Files that may cite a DESIGN.md section but describe the tree as it
/// was when they were written: their citations are history, not links.
const HISTORY: [&str; 4] = [
    "CHANGES.md",
    "CHANGELOG.md",
    "ROADMAP.md",
    "experiments/log/",
];

/// A Rust source file and the names it declares and implements.
struct Source {
    path: String,
    declared: HashSet<String>,
    implemented: HashSet<String>,
}

struct Repo {
    /// Every file, relative to the root, `/`-separated.
    files: Vec<String>,
    /// Every `.rs` file.
    sources: Vec<Source>,
    /// `(crate name as a path segment, its source directory)`.
    crates: Vec<(String, String)>,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// The tree, read once for every test.
fn repo() -> &'static Repo {
    static REPO: OnceLock<Repo> = OnceLock::new();
    REPO.get_or_init(Repo::load)
}

impl Repo {
    fn load() -> Repo {
        let mut files = Vec::new();
        walk(root(), "", &mut files);
        files.sort();
        let sources = files
            .iter()
            .filter(|f| f.ends_with(".rs"))
            .map(|f| {
                let text = read(f);
                Source {
                    path: f.clone(),
                    declared: declared(&text),
                    implemented: implemented(&text),
                }
            })
            .collect();
        let mut crates = vec![("pscd".to_string(), "src/".to_string())];
        for f in files.iter().filter(|f| f.ends_with("/Cargo.toml")) {
            let dir = &f[..f.len() - "Cargo.toml".len()];
            let name = read(f).lines().find_map(|l| {
                let v = l.strip_prefix("name = \"")?.strip_suffix('"')?;
                Some(v.replace('-', "_"))
            });
            if let Some(name) = name {
                crates.push((name, format!("{dir}src/")));
            }
        }
        Repo {
            files,
            sources,
            crates,
        }
    }

    /// The files a document means by `name`: the path itself, any path
    /// ending in `/name`, or (a bare file name) any file of that name.
    fn find(&self, name: &str) -> Vec<&str> {
        let suffix = format!("/{name}");
        self.files
            .iter()
            .filter(|f| *f == name || f.ends_with(&suffix))
            .map(String::as_str)
            .collect()
    }

    fn is_dir(&self, name: &str) -> bool {
        let name = name.trim_end_matches('/');
        root().join(name).is_dir() || {
            let inner = format!("/{name}/");
            self.files.iter().any(|f| f.contains(&inner))
        }
    }

    fn indices<'a>(
        &'a self,
        keep: impl Fn(&Source) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        self.sources
            .iter()
            .enumerate()
            .filter(move |(_, src)| keep(src))
            .map(|(i, _)| i)
    }

    /// The files a path's first segment can mean: a crate (by name or
    /// without its `pscd_` prefix), a module file or directory, a file
    /// that declares it, or (a type) a file that implements it.
    fn first_scope(&self, seg: &str) -> BTreeSet<usize> {
        let prefixed = format!("pscd_{seg}");
        let dirs: Vec<&str> = self
            .crates
            .iter()
            .filter(|(name, _)| *name == seg || *name == prefixed)
            .map(|(_, dir)| dir.as_str())
            .collect();
        let file = format!("/{seg}.rs");
        let module_dir = format!("/{seg}/");
        self.indices(|src| {
            dirs.iter().any(|d| src.path.starts_with(d))
                || src.path.ends_with(&file)
                || src.path.contains(&module_dir)
                || src.declared.contains(seg)
                || (capitalized(seg) && src.implemented.contains(seg))
        })
        .collect()
    }

    /// The files in which `seg` is found inside `scope`: a module file
    /// next to or below a scope file, a scope file that declares it, or
    /// (a type) the files of its crate that implement it.
    fn step(&self, scope: &BTreeSet<usize>, seg: &str) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &i in scope {
            let path = self.sources[i].path.as_str();
            let dir = &path[..path.rfind('/').map_or(0, |k| k + 1)];
            let nested = format!("{}/", path.trim_end_matches(".rs"));
            let modules = [dir, nested.as_str()]
                .map(|d| [format!("{d}{seg}.rs"), format!("{d}{seg}/mod.rs")]);
            out.extend(self.indices(|src| modules.iter().flatten().any(|m| *m == src.path)));
            if self.sources[i].declared.contains(seg) {
                out.insert(i);
                if capitalized(seg) {
                    let krate = path.find("/src/").map_or(dir, |k| &path[..k + 5]);
                    out.extend(self.indices(|src| {
                        src.path.starts_with(krate) && src.implemented.contains(seg)
                    }));
                }
            }
        }
        out
    }

    /// `None` when the Rust path names something in the tree, else the
    /// first segment nothing declares where the path puts it.
    fn resolve(&self, path: &str) -> Option<String> {
        let segs: Vec<&str> = path.split("::").collect();
        let mut scope = if segs[0].ends_with(".rs") {
            let files = self.find(segs[0]);
            self.indices(|src| files.contains(&src.path.as_str()))
                .collect()
        } else {
            self.first_scope(segs[0])
        };
        if scope.is_empty() {
            return Some(segs[0].to_string());
        }
        for seg in &segs[1..] {
            scope = self.step(&scope, seg);
            if scope.is_empty() {
                return Some(seg.to_string());
            }
        }
        None
    }
}

fn walk(dir: &Path, rel: &str, out: &mut Vec<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("listing {}: {e}", dir.display()));
    for entry in entries {
        let entry = entry.expect("a directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = format!("{rel}{name}");
        let ty = entry.file_type().expect("a file type");
        if ty.is_dir() {
            let build_output = matches!(name.as_str(), ".git" | "target" | ".bench_build")
                || path == "benchmark/out";
            if !build_output {
                walk(&entry.path(), &format!("{path}/"), out);
            }
        } else {
            out.push(path);
        }
    }
}

/// A markdown document's prose, one string per paragraph, its lines
/// joined by spaces so that a code span may wrap; fenced code blocks are
/// left out.
fn paragraphs(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            out.push(std::mem::take(&mut current));
            continue;
        }
        if fenced {
            continue;
        }
        if line.trim().is_empty() || line.starts_with('|') || line.starts_with('#') {
            out.push(std::mem::take(&mut current));
            if !line.trim().is_empty() {
                out.push(line.to_string());
            }
            continue;
        }
        if !current.is_empty() {
            current.push(' ');
        }
        current.push_str(line.trim());
    }
    out.push(current);
    out.retain(|p| !p.is_empty());
    out
}

/// The inline code spans of a paragraph, each with the text before and
/// after it.
fn code_spans(par: &str) -> Vec<(&str, &str, &str)> {
    let mut out = Vec::new();
    let ticks: Vec<usize> = par.match_indices('`').map(|(i, _)| i).collect();
    for pair in ticks.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        out.push((&par[..a], &par[a + 1..b], &par[b + 1..]));
    }
    out
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`.
fn expand(s: &str) -> Vec<String> {
    match (s.find('{'), s.find('}')) {
        (Some(a), Some(b)) if a < b => s[a + 1..b]
            .split(',')
            .flat_map(|alt| expand(&format!("{}{}{}", &s[..a], alt.trim(), &s[b + 1..])))
            .collect(),
        _ => vec![s.to_string()],
    }
}

/// A code span that names a repo file: the path, and the last line of
/// a `path:N` or `path:N–M` suffix.
fn file_ref(span: &str) -> Option<(String, Option<usize>)> {
    if span.contains("::")
        || span.starts_with('/')
        || span.contains(|c: char| c.is_whitespace() || "<>…*$=".contains(c))
    {
        return None;
    }
    let (path, last_line) = match span.split_once(':') {
        None => (span, None),
        Some((path, range)) => {
            let last = range.rsplit(['–', '-']).next()?;
            let ok = range.split(['–', '-']).all(|n| n.parse::<usize>().is_ok());
            (path, Some(last.parse::<usize>().ok().filter(|_| ok)?))
        }
    };
    let is_file =
        FILE_EXTS.iter().any(|e| path.ends_with(e)) || (path.contains('/') && path.ends_with('/'));
    is_file.then(|| (path.to_string(), last_line))
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn capitalized(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
}

/// The names a file declares: its items, struct fields and enum
/// variants, and every name a `pub use` of it mentions.
fn declared(text: &str) -> HashSet<String> {
    const KEYWORDS: [&str; 10] = [
        "fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "mod ",
        "const ",
        "static ",
        "union ",
        "macro_rules! ",
    ];
    const QUALIFIERS: [&str; 4] = ["unsafe ", "async ", "extern \"C\" ", "default "];
    let ident = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect()
    };
    let mut out = HashSet::new();
    for line in text.lines() {
        let mut t = line.trim_start();
        if let Some(rest) = t.strip_prefix("pub") {
            t = match rest.strip_prefix('(') {
                Some(r) => r.split_once(')').map_or(r, |(_, r)| r),
                None => rest,
            }
            .trim_start();
            if t.starts_with("use ") {
                out.extend(words(t));
            }
        }
        loop {
            let before = t;
            for q in QUALIFIERS {
                t = t.strip_prefix(q).unwrap_or(t);
            }
            if let Some(r) = t.strip_prefix("const ").filter(|r| r.starts_with("fn ")) {
                t = r;
            }
            if t == before {
                break;
            }
        }
        if let Some(rest) = KEYWORDS.iter().find_map(|kw| t.strip_prefix(kw)) {
            out.insert(ident(rest));
            continue;
        }
        let name = ident(t);
        let rest = &t[name.len()..];
        let field = !capitalized(&name) && rest.starts_with(':') && !rest.starts_with("::");
        let variant = capitalized(&name)
            && matches!(
                rest.chars().next(),
                None | Some(',' | '(' | ' ' | '{' | '=')
            )
            && !rest.trim_start().starts_with("=>");
        if is_ident(&name) && (field || variant) {
            out.insert(name);
        }
    }
    out
}

/// The identifiers in `text`.
fn words(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| is_ident(w))
        .map(String::from)
}

/// The names an `impl` line of the file mentions.
fn implemented(text: &str) -> HashSet<String> {
    text.lines()
        .filter(|l| l.trim_start().starts_with("impl"))
        .flat_map(words)
        .collect()
}

/// The Rust path a code span cites, with call arguments and generic
/// arguments cut off; `None` for a span that is no such path.
fn rust_path(span: &str) -> Option<String> {
    if !span.contains("::") {
        return None;
    }
    let mut s = span.split('(').next().unwrap_or(span);
    if let Some(i) = s.find('<') {
        s = &s[..i];
    }
    let s = s.trim_end_matches("::");
    let segs: Vec<&str> = s.split("::").collect();
    if STD.contains(&segs[0]) {
        return None;
    }
    let first_ok =
        is_ident(segs[0]) || (segs[0].ends_with(".rs") && !segs[0].contains(char::is_whitespace));
    let generic = |seg: &&str| *seg == "Self" || (seg.len() == 1 && capitalized(seg));
    let ok = segs.len() > 1
        && first_ok
        && segs[1..].iter().all(|seg| is_ident(seg))
        && !segs.iter().any(generic);
    ok.then(|| s.to_string())
}

fn doc_spans(repo_doc: &str) -> Vec<(String, String, String)> {
    paragraphs(&read(repo_doc))
        .iter()
        .flat_map(|par| {
            code_spans(par)
                .into_iter()
                .map(|(b, s, a)| (b.to_string(), s.to_string(), a.to_string()))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn fail_on(problems: Vec<String>) {
    assert!(
        problems.is_empty(),
        "{} stale name(s):\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
}

#[test]
fn design_md_stays_under_50_kb() {
    let len = read("DESIGN.md").len();
    assert!(
        len < DESIGN_LIMIT,
        "DESIGN.md is {len} B, at or over its {DESIGN_LIMIT} B limit: remove as much as you add"
    );
}

#[test]
fn documents_name_only_files_and_lines_that_exist() {
    let repo = repo();
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for par in paragraphs(&text) {
            let mut rest = par.as_str();
            while let Some(i) = rest.find("](") {
                let after = &rest[i + 2..];
                let target = after.split(')').next().unwrap_or("");
                let target = target.split('#').next().unwrap_or("");
                let external = target.contains("://") || target.starts_with("mailto:");
                if !target.is_empty() && !external && !root().join(target).exists() {
                    problems.push(format!("{doc} links `{target}`, which does not exist"));
                }
                rest = after;
            }
            for (_, span, _) in code_spans(&par) {
                for span in expand(span) {
                    let Some((path, last_line)) = file_ref(&span) else {
                        continue;
                    };
                    if path.ends_with('/') {
                        if !repo.is_dir(&path) {
                            problems.push(format!("{doc} names `{path}`, which does not exist"));
                        }
                        continue;
                    }
                    let found = repo.find(&path);
                    if found.is_empty() {
                        problems.push(format!("{doc} names `{path}`, which does not exist"));
                    } else if let Some(n) = last_line {
                        let longest = found.iter().map(|f| read(f).lines().count()).max();
                        if longest.is_some_and(|len| len < n) {
                            problems.push(format!(
                                "{doc} cites `{span}`, but `{path}` has {} lines",
                                longest.unwrap_or(0)
                            ));
                        }
                    }
                }
            }
        }
    }
    fail_on(problems);
}

#[test]
fn documents_name_only_ci_jobs_that_exist() {
    let ci = read(".github/workflows/ci.yml");
    let mut jobs = BTreeSet::new();
    let mut in_jobs = false;
    for line in ci.lines() {
        if line == "jobs:" {
            in_jobs = true;
        } else if in_jobs && !line.is_empty() && !line.starts_with(' ') && !line.starts_with('#') {
            in_jobs = false;
        } else if in_jobs {
            let id = line.strip_prefix("  ").and_then(|l| l.strip_suffix(':'));
            if let Some(id) = id.filter(|id| is_job_id(id)) {
                jobs.insert(id.to_string());
            }
        }
    }
    assert!(jobs.len() >= 2, "no jobs read from ci.yml: {jobs:?}");
    let mut problems = Vec::new();
    for doc in DOCS {
        for (before, span, after) in doc_spans(doc) {
            let named = before.ends_with("CI job ")
                || before.ends_with("CI jobs ")
                || after.starts_with(" CI job")
                || (after.starts_with(" job") && !after[4..].starts_with(char::is_alphabetic));
            if named && !jobs.contains(&span) {
                problems.push(format!(
                    "{doc} names CI job `{span}`; ci.yml's jobs are {jobs:?}"
                ));
            }
        }
    }
    fail_on(problems);
}

fn is_job_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

#[test]
fn documents_cite_only_tests_and_functions_that_exist() {
    let repo = repo();
    let mut problems = Vec::new();
    for doc in DOCS {
        for (_, span, _) in doc_spans(doc) {
            for span in expand(&span) {
                let Some(path) = rust_path(&span) else {
                    continue;
                };
                if let Some(seg) = repo.resolve(&path) {
                    problems.push(format!(
                        "{doc} cites `{path}`, but nothing declares `{seg}` there"
                    ));
                }
            }
        }
    }
    fail_on(problems);
}

/// The section numbers `§N`, `§N–M`, `§N and §M` that follow `at`.
fn cited_sections(at: &str) -> Vec<u32> {
    let mut out = Vec::new();
    let mut rest = at;
    while let Some(r) = rest.strip_prefix('§') {
        let digits: String = r.chars().take_while(char::is_ascii_digit).collect();
        let Ok(first) = digits.parse::<u32>() else {
            break;
        };
        rest = &r[digits.len()..];
        let mut last = first;
        if let Some(r) = rest.strip_prefix('–').or_else(|| rest.strip_prefix('-')) {
            let digits: String = r.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = digits.parse::<u32>() {
                last = n;
                rest = &r[digits.len()..];
            }
        }
        out.extend(first..=last.max(first));
        rest = rest
            .strip_prefix(" and ")
            .or_else(|| rest.strip_prefix(", "))
            .or_else(|| rest.strip_prefix('/'))
            .unwrap_or(rest);
    }
    out
}

/// A file's text with comment markers and line breaks folded into
/// spaces, so that a citation may wrap.
fn folded(text: &str) -> String {
    text.lines()
        .map(|l| {
            let t = l.trim_start();
            ["//!", "///", "//", "#"]
                .iter()
                .find_map(|m| t.strip_prefix(m))
                .unwrap_or(t)
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn cited_design_sections_exist() {
    let design = read("DESIGN.md");
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once(". ")?.0.parse().ok())
        .collect();
    assert!(
        !sections.is_empty(),
        "DESIGN.md has no numbered `## N.` sections"
    );
    let repo = repo();
    let mut problems = Vec::new();
    let texts = repo.files.iter().filter(|f| {
        let checked = [".rs", ".md", ".sh", ".yml", ".toml", ".py"]
            .iter()
            .any(|e| f.ends_with(e));
        checked && !HISTORY.iter().any(|h| f.starts_with(h)) && !f.starts_with("vendor/")
    });
    for file in texts {
        let text = folded(&read(file));
        let mut cited = Vec::new();
        if file == "DESIGN.md" {
            // Its own cross-references; the paper's sections are cited
            // as "paper §N".
            for (i, _) in text.match_indices('§') {
                if !text[..i].trim_end().ends_with("paper") {
                    cited.extend(cited_sections(&text[i..]));
                }
            }
        } else {
            for (i, m) in text.match_indices("DESIGN.md") {
                let mut rest = &text[i + m.len()..];
                rest = rest.strip_prefix("](DESIGN.md)").unwrap_or(rest);
                cited.extend(cited_sections(rest.trim_start()));
            }
        }
        for n in cited {
            if !sections.contains(&n) {
                problems.push(format!("{file} cites DESIGN.md §{n}, which does not exist"));
            }
        }
    }
    fail_on(problems);
}
