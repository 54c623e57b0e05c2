//! The typed request/response layer: JSON body → [`AppSpec`] +
//! evaluation options, and the canonical streamed-row rendering.
//!
//! One renderer ([`render_row`]) is shared by the daemon, the offline
//! reference ([`offline_rows`]) and the scripted client, so "rows
//! streamed by `memx-serve` are byte-identical to an offline
//! `Engine::evaluate_stream` run" holds by construction: both sides
//! format the same deterministic report fields with the same code.
//! Rows deliberately exclude [`memx_core::alloc::AllocStats`] — search
//! *effort* counters are not part of the deterministic result (worker
//! counts and warm caches change them) and would break the byte
//! identity the protocol pins.

use std::fmt;

use memx_core::alloc::AllocOptions;
use memx_core::engine::{DesignPoint, Engine};
use memx_core::explore::{CostReport, EvaluateOptions};
use memx_core::ExploreError;
use memx_ir::{
    parse_spec, AccessKind, AppSpec, AppSpecBuilder, BuildSpecError, Placement, SpecTextError,
};
use memx_memlib::MemLibrary;

use crate::json::{self, Json};

/// Per-request shape limits (the byte limit is enforced earlier, while
/// reading the body — see [`crate::http::ReadLimits`]).
#[derive(Debug, Clone, Copy)]
pub struct WireLimits {
    /// Largest accepted `spec.groups` array.
    pub max_groups: usize,
    /// Largest accepted `points` array.
    pub max_points: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_groups: 256,
            max_points: 4096,
        }
    }
}

/// A decoded evaluation request: the spec, the labeled option batch,
/// and the client's (advisory) worker ask.
#[derive(Debug)]
pub struct EvaluateRequest {
    /// The application specification the batch evaluates.
    pub spec: AppSpec,
    /// One `(label, options)` pair per requested design point, in
    /// request order.
    pub points: Vec<(String, EvaluateOptions)>,
    /// Requested worker count (`None` = server decides). The server
    /// caps this by its per-request budget; it is never an entitlement.
    pub workers: Option<usize>,
}

impl EvaluateRequest {
    /// The design points of this request, borrowing the decoded spec.
    pub fn design_points(&self) -> Vec<DesignPoint<'_>> {
        self.points
            .iter()
            .map(|(label, options)| DesignPoint::new(label.clone(), &self.spec, options.clone()))
            .collect()
    }
}

/// Why a request body was rejected.
#[derive(Debug)]
pub enum WireError {
    /// The body is not the JSON shape the protocol defines (missing or
    /// mistyped member). Maps to 400.
    Shape {
        /// Dotted path of the offending member (`spec.groups[2].words`).
        context: String,
        /// What was expected.
        message: String,
    },
    /// A shape limit was exceeded. Maps to 413.
    Limit {
        /// Which array.
        what: &'static str,
        /// The configured cap.
        limit: usize,
        /// What the request carried.
        got: usize,
    },
    /// The spec is well-formed JSON but semantically invalid (duplicate
    /// group name, cyclic dependency, zero words...). Maps to 422.
    Spec(BuildSpecError),
    /// A `spec_text` member failed to parse; the diagnostic carries
    /// the line and column inside the submitted text. Maps to 422.
    SpecText(SpecTextError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Shape { context, message } => write!(f, "{context}: {message}"),
            WireError::Limit { what, limit, got } => {
                write!(f, "{what}: {got} exceeds the limit of {limit}")
            }
            WireError::Spec(e) => write!(f, "invalid spec: {e}"),
            WireError::SpecText(e) => write!(f, "invalid spec_text: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The status code this rejection maps to on the wire.
    pub fn status(&self) -> u16 {
        match self {
            WireError::Shape { .. } => 400,
            WireError::Limit { .. } => 413,
            WireError::Spec(_) | WireError::SpecText(_) => 422,
        }
    }
}

fn shape(context: impl Into<String>, message: impl Into<String>) -> WireError {
    WireError::Shape {
        context: context.into(),
        message: message.into(),
    }
}

fn member<'j>(obj: &'j Json, context: &str, key: &str) -> Result<&'j Json, WireError> {
    obj.get(key)
        .ok_or_else(|| shape(format!("{context}.{key}"), "missing member"))
}

fn str_member(obj: &Json, context: &str, key: &str) -> Result<String, WireError> {
    member(obj, context, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| shape(format!("{context}.{key}"), "expected a string"))
}

fn u64_member(obj: &Json, context: &str, key: &str) -> Result<u64, WireError> {
    member(obj, context, key)?.as_u64().ok_or_else(|| {
        shape(
            format!("{context}.{key}"),
            "expected a non-negative integer",
        )
    })
}

fn opt_u64(obj: &Json, context: &str, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            shape(
                format!("{context}.{key}"),
                "expected a non-negative integer",
            )
        }),
    }
}

fn opt_f64(obj: &Json, context: &str, key: &str) -> Result<Option<f64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| shape(format!("{context}.{key}"), "expected a number")),
    }
}

fn opt_bool(obj: &Json, context: &str, key: &str) -> Result<Option<bool>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| shape(format!("{context}.{key}"), "expected a boolean")),
    }
}

fn arr_member<'j>(obj: &'j Json, context: &str, key: &str) -> Result<&'j [Json], WireError> {
    member(obj, context, key)?
        .as_arr()
        .ok_or_else(|| shape(format!("{context}.{key}"), "expected an array"))
}

/// Decodes one `POST /v1/evaluate` body.
///
/// # Errors
///
/// [`WireError`] locating the first offending member; the JSON itself
/// must already be parsed (a parse failure is the caller's 400).
pub fn decode_evaluate(body: &Json, limits: WireLimits) -> Result<EvaluateRequest, WireError> {
    if !matches!(body, Json::Obj(_)) {
        return Err(shape("request", "expected a JSON object"));
    }
    // Exactly one of `spec` (structured JSON) and `spec_text` (the
    // textual format of docs/spec_format.md) carries the application.
    let spec = match (body.get("spec"), body.get("spec_text")) {
        (Some(_), Some(_)) => {
            return Err(shape(
                "request",
                "`spec` and `spec_text` are mutually exclusive",
            ))
        }
        (None, None) => {
            return Err(shape(
                "request",
                "missing member (provide `spec` or `spec_text`)",
            ))
        }
        (Some(spec_json), None) => decode_spec(spec_json, limits)?,
        (None, Some(text_json)) => {
            let text = text_json
                .as_str()
                .ok_or_else(|| shape("request.spec_text", "expected a string"))?;
            let spec = parse_spec(text).map_err(WireError::SpecText)?;
            // The textual path enforces the same shape cap as the
            // structured one, just after parsing instead of before.
            if spec.basic_groups().len() > limits.max_groups {
                return Err(WireError::Limit {
                    what: "spec.groups",
                    limit: limits.max_groups,
                    got: spec.basic_groups().len(),
                });
            }
            spec
        }
    };

    let points_json = arr_member(body, "request", "points")?;
    if points_json.is_empty() {
        return Err(shape("request.points", "expected at least one point"));
    }
    if points_json.len() > limits.max_points {
        return Err(WireError::Limit {
            what: "request.points",
            limit: limits.max_points,
            got: points_json.len(),
        });
    }
    let mut points = Vec::with_capacity(points_json.len());
    for (i, point) in points_json.iter().enumerate() {
        let ctx = format!("points[{i}]");
        let label = match point.get("label") {
            None => format!("point {i}"),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| shape(format!("{ctx}.label"), "expected a string"))?,
        };
        let cycle_budget = opt_u64(point, &ctx, "cycle_budget")?;
        let alloc = match point.get("alloc") {
            None | Some(Json::Null) => AllocOptions::default(),
            Some(a) => decode_alloc(a, &ctx)?,
        };
        points.push((
            label,
            EvaluateOptions {
                cycle_budget,
                alloc,
            },
        ));
    }

    let workers = opt_u64(body, "request", "workers")?.map(|w| w as usize);
    Ok(EvaluateRequest {
        spec,
        points,
        workers,
    })
}

fn decode_spec(spec: &Json, limits: WireLimits) -> Result<AppSpec, WireError> {
    let name = str_member(spec, "spec", "name")?;
    let mut b = AppSpecBuilder::new(name);
    b.cycle_budget(u64_member(spec, "spec", "cycle_budget")?);
    if let Some(seconds) = opt_f64(spec, "spec", "real_time_seconds")? {
        b.real_time_seconds(seconds);
    }

    let groups = arr_member(spec, "spec", "groups")?;
    if groups.len() > limits.max_groups {
        return Err(WireError::Limit {
            what: "spec.groups",
            limit: limits.max_groups,
            got: groups.len(),
        });
    }
    let mut group_ids = Vec::with_capacity(groups.len());
    for (i, group) in groups.iter().enumerate() {
        let ctx = format!("spec.groups[{i}]");
        let placement = match group.get("placement") {
            None | Some(Json::Null) => Placement::Any,
            Some(v) => match v.as_str() {
                Some("any") => Placement::Any,
                Some("on_chip") => Placement::OnChip,
                Some("off_chip") => Placement::OffChip,
                _ => {
                    return Err(shape(
                        format!("{ctx}.placement"),
                        "expected \"any\", \"on_chip\" or \"off_chip\"",
                    ))
                }
            },
        };
        let bitwidth = u64_member(group, &ctx, "bitwidth")?;
        let bitwidth = u32::try_from(bitwidth)
            .map_err(|_| shape(format!("{ctx}.bitwidth"), "expected 1..=64"))?;
        let min_ports = opt_u64(group, &ctx, "min_ports")?.unwrap_or(1);
        let min_ports = u32::try_from(min_ports)
            .map_err(|_| shape(format!("{ctx}.min_ports"), "expected a small integer"))?;
        let id = b
            .basic_group_full(
                str_member(group, &ctx, "name")?,
                u64_member(group, &ctx, "words")?,
                bitwidth,
                placement,
                min_ports,
            )
            .map_err(WireError::Spec)?;
        group_ids.push(id);
    }

    let nests = arr_member(spec, "spec", "nests")?;
    for (i, nest) in nests.iter().enumerate() {
        let ctx = format!("spec.nests[{i}]");
        let nest_id = b
            .loop_nest(
                str_member(nest, &ctx, "name")?,
                u64_member(nest, &ctx, "iterations")?,
            )
            .map_err(WireError::Spec)?;
        let accesses = arr_member(nest, &ctx, "accesses")?;
        let mut access_ids = Vec::with_capacity(accesses.len());
        for (j, access) in accesses.iter().enumerate() {
            let actx = format!("{ctx}.accesses[{j}]");
            let group_index = u64_member(access, &actx, "group")? as usize;
            let group = *group_ids
                .get(group_index)
                .ok_or_else(|| shape(format!("{actx}.group"), "group index out of range"))?;
            let kind = match member(access, &actx, "kind")?.as_str() {
                Some("read") => AccessKind::Read,
                Some("write") => AccessKind::Write,
                _ => {
                    return Err(shape(
                        format!("{actx}.kind"),
                        "expected \"read\" or \"write\"",
                    ))
                }
            };
            let weight = opt_f64(access, &actx, "weight")?.unwrap_or(1.0);
            let burst = opt_bool(access, &actx, "burst")?.unwrap_or(false);
            let id = b
                .access_full(nest_id, group, kind, weight, burst)
                .map_err(WireError::Spec)?;
            access_ids.push(id);
        }
        if let Some(deps) = nest.get("deps") {
            let deps = deps
                .as_arr()
                .ok_or_else(|| shape(format!("{ctx}.deps"), "expected an array of [from, to]"))?;
            for (j, dep) in deps.iter().enumerate() {
                let dctx = format!("{ctx}.deps[{j}]");
                let pair = dep
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| shape(&dctx, "expected [from, to]"))?;
                let endpoint = |v: &Json| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .and_then(|n| access_ids.get(n).copied())
                };
                let (from, to) = match (endpoint(&pair[0]), endpoint(&pair[1])) {
                    (Some(f), Some(t)) => (f, t),
                    _ => return Err(shape(&dctx, "access index out of range")),
                };
                b.depend(nest_id, from, to).map_err(WireError::Spec)?;
            }
        }
    }

    b.build().map_err(WireError::Spec)
}

fn decode_alloc(alloc: &Json, point_ctx: &str) -> Result<AllocOptions, WireError> {
    let ctx = format!("{point_ctx}.alloc");
    let defaults = AllocOptions::default();
    let on_chip_memories = match opt_u64(alloc, &ctx, "on_chip_memories")? {
        None => None,
        Some(k) => Some(u32::try_from(k).map_err(|_| {
            shape(
                format!("{ctx}.on_chip_memories"),
                "expected a small integer",
            )
        })?),
    };
    let max_on_chip_ports = match opt_u64(alloc, &ctx, "max_on_chip_ports")? {
        None => defaults.max_on_chip_ports,
        Some(p) => u32::try_from(p).map_err(|_| {
            shape(
                format!("{ctx}.max_on_chip_ports"),
                "expected a small integer",
            )
        })?,
    };
    Ok(AllocOptions {
        on_chip_memories,
        area_weight: opt_f64(alloc, &ctx, "area_weight")?.unwrap_or(defaults.area_weight),
        power_weight: opt_f64(alloc, &ctx, "power_weight")?.unwrap_or(defaults.power_weight),
        max_on_chip_ports,
        node_limit: opt_u64(alloc, &ctx, "node_limit")?.unwrap_or(defaults.node_limit),
        // Worker budgeting is the *server's*: one pool shared across
        // requests, split per request (see `crate::server`). A request
        // asks for workers at the top level, never per point.
        workers: 0,
    })
}

/// Renders one streamed row (with its trailing newline): index, label,
/// and either the deterministic result fields or the error display.
pub fn render_row(index: usize, label: &str, result: &Result<CostReport, ExploreError>) -> String {
    let payload = match result {
        Ok(report) => (
            "ok",
            Json::Obj(vec![
                (
                    "on_chip_area_mm2".to_string(),
                    Json::Num(report.cost.on_chip_area_mm2),
                ),
                (
                    "on_chip_power_mw".to_string(),
                    Json::Num(report.cost.on_chip_power_mw),
                ),
                (
                    "off_chip_power_mw".to_string(),
                    Json::Num(report.cost.off_chip_power_mw),
                ),
                (
                    "macp_cycles".to_string(),
                    Json::Num(report.macp_cycles as f64),
                ),
                (
                    "on_chip_memories".to_string(),
                    Json::Num(report.organization.on_chip_count() as f64),
                ),
                (
                    "off_chip_memories".to_string(),
                    Json::Num(report.organization.off_chip_count() as f64),
                ),
            ]),
        ),
        Err(e) => ("err", Json::Str(e.to_string())),
    };
    let row = Json::Obj(vec![
        ("index".to_string(), Json::Num(index as f64)),
        ("label".to_string(), Json::Str(label.to_string())),
        (payload.0.to_string(), payload.1),
    ]);
    let mut out = row.encode();
    out.push('\n');
    out
}

/// Renders an error-response body: `{"error": "...", "status": N}`.
pub fn render_error(status: u16, message: &str) -> String {
    Json::Obj(vec![
        ("error".to_string(), Json::Str(message.to_string())),
        ("status".to_string(), Json::Num(status as f64)),
    ])
    .encode()
}

/// The offline reference for a request body: decodes it exactly like
/// the daemon and streams it through a **serial** engine (no cache),
/// returning the rendered rows. What the daemon serves must be
/// byte-identical to this for any worker count and cache state.
///
/// # Errors
///
/// Propagates JSON and wire decode failures as a rendered error string
/// (the same text a daemon response body would carry).
pub fn offline_rows(body: &[u8], limits: WireLimits) -> Result<Vec<String>, String> {
    let parsed = json::parse(body).map_err(|e| e.to_string())?;
    let request = decode_evaluate(&parsed, limits).map_err(|e| e.to_string())?;
    let lib = MemLibrary::default_07um();
    let engine = Engine::builder(&lib).workers(1).build();
    let points = request.design_points();
    let mut rows = Vec::with_capacity(points.len());
    engine.evaluate_stream(&points, |i, result| {
        rows.push(render_row(i, &points[i].label, &result));
    });
    Ok(rows)
}

/// The built-in demonstration batch the scripted client and the daemon
/// tests send: a small two-group spec with a budget sweep whose last
/// point is infeasible (so error rows are exercised on every smoke
/// run). Kept as *text* so the decode path is part of everything that
/// uses it.
pub fn demo_request_text() -> String {
    r#"{
  "spec": {
    "name": "serve-demo",
    "cycle_budget": 100000,
    "real_time_seconds": 0.01,
    "groups": [
      {"name": "x", "words": 1024, "bitwidth": 8},
      {"name": "y", "words": 512, "bitwidth": 16},
      {"name": "frame", "words": 1048576, "bitwidth": 8, "placement": "off_chip"}
    ],
    "nests": [
      {
        "name": "l",
        "iterations": 10000,
        "accesses": [
          {"group": 0, "kind": "read"},
          {"group": 1, "kind": "write", "weight": 0.5},
          {"group": 2, "kind": "read"}
        ],
        "deps": [[0, 1]]
      }
    ]
  },
  "points": [
    {"label": "budget 100000", "cycle_budget": 100000},
    {"label": "budget 50000", "cycle_budget": 50000},
    {"label": "k=2", "cycle_budget": 100000, "alloc": {"on_chip_memories": 2}},
    {"label": "budget 10", "cycle_budget": 10}
  ]
}
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_request_decodes_and_streams_offline() {
        let body = demo_request_text();
        let parsed = json::parse(body.as_bytes()).unwrap();
        let request = decode_evaluate(&parsed, WireLimits::default()).unwrap();
        assert_eq!(request.spec.basic_groups().len(), 3);
        assert_eq!(request.points.len(), 4);
        assert_eq!(request.points[2].1.alloc.on_chip_memories, Some(2));
        assert_eq!(request.workers, None);

        let rows = offline_rows(body.as_bytes(), WireLimits::default()).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].starts_with(r#"{"index":0,"label":"budget 100000","ok":{"#));
        assert!(rows[3].starts_with(r#"{"index":3,"label":"budget 10","err":"#));
        for row in &rows {
            assert!(row.ends_with('\n'));
            json::parse(row.trim_end().as_bytes()).unwrap();
        }
    }

    #[test]
    fn rows_are_worker_count_and_cache_independent() {
        let body = demo_request_text();
        let parsed = json::parse(body.as_bytes()).unwrap();
        let request = decode_evaluate(&parsed, WireLimits::default()).unwrap();
        let reference = offline_rows(body.as_bytes(), WireLimits::default()).unwrap();
        let lib = MemLibrary::default_07um();
        for workers in [2usize, 8] {
            let engine = Engine::builder(&lib).workers(workers).build();
            let points = request.design_points();
            let mut rows = Vec::new();
            engine.evaluate_stream(&points, |i, result| {
                rows.push(render_row(i, &points[i].label, &result));
            });
            assert_eq!(rows, reference, "workers={workers}");
        }
    }

    #[test]
    fn shape_errors_name_the_offending_member() {
        let limits = WireLimits::default();
        let cases = [
            (r#"[]"#, "expected a JSON object", 400u16),
            (r#"{"spec": {}, "points": []}"#, "spec.name", 400),
            (
                r#"{"spec": {"name": "x", "cycle_budget": 1, "groups": [], "nests": []}, "points": []}"#,
                "request.points",
                400,
            ),
            (
                r#"{"spec": {"name": "x", "cycle_budget": 1, "groups": [{"name": "g", "words": 1, "bitwidth": 8}], "nests": [{"name": "n", "iterations": 1, "accesses": [{"group": 7, "kind": "read"}]}]}, "points": [{}]}"#,
                "accesses[0].group",
                400,
            ),
            (
                r#"{"spec": {"name": "x", "cycle_budget": 1, "groups": [{"name": "g", "words": 0, "bitwidth": 8}], "nests": []}, "points": [{}]}"#,
                "invalid spec",
                422,
            ),
        ];
        for (body, needle, status) in cases {
            let parsed = json::parse(body.as_bytes()).unwrap();
            let err = decode_evaluate(&parsed, limits).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{body}: {err} missing {needle}"
            );
            assert_eq!(err.status(), status, "{body}");
        }
    }

    #[test]
    fn spec_text_decodes_to_the_same_spec_as_json() {
        let json_body = r#"{"spec": {"name": "wire", "cycle_budget": 100, "groups": [{"name": "g", "words": 64, "bitwidth": 8}], "nests": [{"name": "n", "iterations": 10, "accesses": [{"group": 0, "kind": "read"}]}]}, "points": [{}]}"#;
        let text_body = r#"{"spec_text": "spec v1 \"wire\" {\n  cycle_budget 100\n  group \"g\" {\n    words 64\n    bitwidth 8\n  }\n  nest \"n\" {\n    iterations 10\n    read \"g\"\n  }\n}\n", "points": [{}]}"#;
        let limits = WireLimits::default();
        let from_json =
            decode_evaluate(&json::parse(json_body.as_bytes()).unwrap(), limits).unwrap();
        let from_text =
            decode_evaluate(&json::parse(text_body.as_bytes()).unwrap(), limits).unwrap();
        assert_eq!(from_json.spec, from_text.spec);
        assert_eq!(
            from_json.spec.content_hash(),
            from_text.spec.content_hash(),
            "text-submitted jobs must share cache keys with JSON ones"
        );
    }

    #[test]
    fn spec_and_spec_text_are_mutually_exclusive() {
        let body = r#"{"spec": {"name": "x"}, "spec_text": "spec v1 \"x\" {}", "points": [{}]}"#;
        let err = decode_evaluate(
            &json::parse(body.as_bytes()).unwrap(),
            WireLimits::default(),
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        let body = r#"{"points": [{}]}"#;
        let err = decode_evaluate(
            &json::parse(body.as_bytes()).unwrap(),
            WireLimits::default(),
        )
        .unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.to_string().contains("provide `spec` or `spec_text`"),
            "{err}"
        );
    }

    #[test]
    fn malformed_spec_text_maps_to_422_with_position() {
        let body = r#"{"spec_text": "spec v9 \"x\" {}", "points": [{}]}"#;
        let err = decode_evaluate(
            &json::parse(body.as_bytes()).unwrap(),
            WireLimits::default(),
        )
        .unwrap_err();
        assert_eq!(err.status(), 422);
        let msg = err.to_string();
        assert!(msg.contains("invalid spec_text"), "{msg}");
        assert!(msg.contains("line 1, column 6"), "{msg}");
        assert!(msg.contains("unsupported spec version `v9`"), "{msg}");
    }

    #[test]
    fn spec_text_group_cap_is_enforced_after_parsing() {
        let mut text = String::from("spec v1 \\\"big\\\" {\\n  cycle_budget 10\\n");
        for i in 0..3 {
            text.push_str(&format!(
                "  group \\\"g{i}\\\" {{\\n    words 4\\n    bitwidth 8\\n  }}\\n"
            ));
        }
        text.push_str("  nest \\\"n\\\" {\\n    iterations 1\\n    read \\\"g0\\\"\\n  }\\n}\\n");
        let body = format!(r#"{{"spec_text": "{text}", "points": [{{}}]}}"#);
        let limits = WireLimits {
            max_groups: 2,
            max_points: 2,
        };
        let err = decode_evaluate(&json::parse(body.as_bytes()).unwrap(), limits).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.to_string().contains("spec.groups"), "{err}");
    }

    #[test]
    fn limits_reject_oversized_shapes_with_413() {
        let limits = WireLimits {
            max_groups: 2,
            max_points: 2,
        };
        let mut groups = Vec::new();
        for i in 0..3 {
            groups.push(format!(r#"{{"name": "g{i}", "words": 1, "bitwidth": 8}}"#));
        }
        let body = format!(
            r#"{{"spec": {{"name": "x", "cycle_budget": 1, "groups": [{}], "nests": []}}, "points": [{{}}]}}"#,
            groups.join(",")
        );
        let err = decode_evaluate(&json::parse(body.as_bytes()).unwrap(), limits).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.to_string().contains("spec.groups"));

        let body = r#"{"spec": {"name": "x", "cycle_budget": 1, "groups": [{"name": "g", "words": 1, "bitwidth": 8}], "nests": []}, "points": [{}, {}, {}]}"#;
        let err = decode_evaluate(&json::parse(body.as_bytes()).unwrap(), limits).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.to_string().contains("request.points"));
    }

    #[test]
    fn alloc_options_decode_every_knob() {
        let body = r#"{
          "spec": {"name": "x", "cycle_budget": 100000, "groups": [{"name": "g", "words": 64, "bitwidth": 8}], "nests": [{"name": "n", "iterations": 10, "accesses": [{"group": 0, "kind": "write"}]}]},
          "points": [{"alloc": {"on_chip_memories": 3, "area_weight": 2.0, "power_weight": 0.5, "max_on_chip_ports": 2, "node_limit": 1000}}],
          "workers": 2
        }"#;
        let request = decode_evaluate(
            &json::parse(body.as_bytes()).unwrap(),
            WireLimits::default(),
        )
        .unwrap();
        let alloc = &request.points[0].1.alloc;
        assert_eq!(alloc.on_chip_memories, Some(3));
        assert_eq!(alloc.area_weight, 2.0);
        assert_eq!(alloc.power_weight, 0.5);
        assert_eq!(alloc.max_on_chip_ports, 2);
        assert_eq!(alloc.node_limit, 1000);
        assert_eq!(alloc.workers, 0, "wire never sets per-point workers");
        assert_eq!(request.workers, Some(2));
        assert_eq!(request.points[0].0, "point 0", "default label");
    }

    #[test]
    fn protocol_doc_request_example_decodes_its_knobs() {
        let doc = include_str!("../../../docs/serve_protocol.md");
        let (_, rest) = doc.split_once("```json\n").expect("doc has a json block");
        let (block, _) = rest.split_once("```").expect("json block is closed");
        let request = decode_evaluate(
            &json::parse(block.as_bytes()).unwrap(),
            WireLimits::default(),
        )
        .unwrap();
        let (label, options) = &request.points[0];
        assert_eq!(label, "tight budget");
        assert_eq!(options.cycle_budget, Some(50_000));
        assert_eq!(options.alloc.on_chip_memories, Some(2));
    }
}
