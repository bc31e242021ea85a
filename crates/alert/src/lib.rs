//! Declarative alert rules evaluated over metrics snapshots.
//!
//! An [`AlertEngine`] holds a list of [`Rule`]s and is fed every
//! [`MetricsSnapshot`] the observability sampler publishes. Each rule is
//! a predicate over one signal — a gauge, a counter (total, per-window
//! delta, or rate), or a histogram-digest percentile — wrapped in a
//! sustained-window trigger: the predicate must hold for `sustain`
//! consecutive snapshots to fire, and fail for `clear` consecutive
//! snapshots to resolve (hysteresis, so a single noisy window cannot
//! flap an alert). Fired and resolved transitions are edge-triggered
//! [`Alert`] events carrying the triggering snapshot's seq, phase,
//! window, and observed value, and they increment `core/alerts/*`
//! counters in the global registry so alerts are themselves observable.
//!
//! The engine is deterministic: alerts are a pure function of the
//! snapshot sequence, so a fixed seed and fixed chaos config reproduce
//! the same alert trail on every run.
//!
//! Built-in rules cover the attack-health failure modes the paper's
//! §VII attack-time model cares about (hammer-success collapse,
//! templating-yield starvation, ETA blowup, run-classification
//! downgrade) plus infrastructure health (worker-pool idle saturation,
//! eval p99 latency breach, recovery pressure). Extra rules come from
//! the `RHB_ALERT_RULES` environment DSL — see [`parse_rules`].

use rhb_telemetry::json::write_json_string;
use rhb_telemetry::MetricsSnapshot;
use std::fmt::Write as _;

/// Env var holding extra rules in the [`parse_rules`] DSL.
pub const RULES_ENV: &str = "RHB_ALERT_RULES";

/// How many fired/resolved events the engine keeps for `/alerts`.
const LOG_CAP: usize = 256;

/// Alert urgency, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Critical,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warn),
            "critical" | "crit" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// Comparison operator for threshold predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }

    pub fn parse(s: &str) -> Option<Cmp> {
        match s {
            "lt" | "<" => Some(Cmp::Lt),
            "le" | "<=" => Some(Cmp::Le),
            "gt" | ">" => Some(Cmp::Gt),
            "ge" | ">=" => Some(Cmp::Ge),
            _ => None,
        }
    }
}

/// The scalar a threshold predicate reads out of each snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Signal {
    /// A gauge's current value; absent gauge → predicate is false.
    Gauge(String),
    /// A counter's monotonic total.
    CounterTotal(String),
    /// A counter's increase over the snapshot window.
    CounterDelta(String),
    /// A counter's events/s over the snapshot window.
    CounterRate(String),
    /// Max p99 across histograms whose name starts with the prefix and
    /// which saw new samples this window.
    HistP99(String),
}

impl Signal {
    pub fn metric(&self) -> &str {
        match self {
            Signal::Gauge(m)
            | Signal::CounterTotal(m)
            | Signal::CounterDelta(m)
            | Signal::CounterRate(m)
            | Signal::HistP99(m) => m,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Signal::Gauge(_) => "gauge",
            Signal::CounterTotal(_) => "counter_total",
            Signal::CounterDelta(_) => "counter_delta",
            Signal::CounterRate(_) => "counter_rate",
            Signal::HistP99(_) => "hist_p99",
        }
    }

    /// Reads the signal from a snapshot; `None` when the underlying
    /// metric does not exist (yet) or saw no samples this window.
    fn read(&self, snap: &MetricsSnapshot) -> Option<f64> {
        match self {
            Signal::Gauge(name) => snap.gauge(name),
            Signal::CounterTotal(name) => snap.counter(name).map(|c| c.total as f64),
            Signal::CounterDelta(name) => snap.counter(name).map(|c| c.delta as f64),
            Signal::CounterRate(name) => snap.counter(name).map(|c| c.rate),
            Signal::HistP99(prefix) => snap
                .histograms
                .iter()
                .filter(|h| h.name.starts_with(prefix.as_str()) && h.delta_count > 0)
                .map(|h| h.summary().p99)
                .fold(None, |acc: Option<f64>, p| {
                    Some(acc.map_or(p, |a| a.max(p)))
                }),
        }
    }
}

/// What a rule tests each snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `signal cmp threshold`.
    Compare {
        signal: Signal,
        cmp: Cmp,
        threshold: f64,
    },
    /// The gauge grew by more than `factor`× since the previous
    /// snapshot (rate-of-change; e.g. the §VII ETA estimate doubling in
    /// one window means observed flip rate collapsed).
    GaugeGrowth { gauge: String, factor: f64 },
    /// The gauge dropped below its previous value. On first
    /// observation, `baseline` (when given) stands in for the previous
    /// value, so a gauge that *appears* already degraded still fires.
    GaugeDrop {
        gauge: String,
        baseline: Option<f64>,
    },
    /// Idle fraction of worker-pool time this window, summed over the
    /// per-worker `par/worker/*/{idle,busy}_us` counters.
    PoolIdleFraction { threshold: f64 },
}

/// One observation of a predicate that held: the value that tripped it,
/// the threshold it tripped against, and (for rate-of-change rules) the
/// previous value.
#[derive(Debug, Clone, Copy)]
struct Trip {
    value: f64,
    threshold: f64,
    prev: Option<f64>,
}

impl Predicate {
    fn evaluate(&self, snap: &MetricsSnapshot, prev_gauges: &[(String, f64)]) -> Option<Trip> {
        let prev_gauge = |name: &str| prev_gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        match self {
            Predicate::Compare {
                signal,
                cmp,
                threshold,
            } => {
                let value = signal.read(snap)?;
                cmp.holds(value, *threshold).then_some(Trip {
                    value,
                    threshold: *threshold,
                    prev: None,
                })
            }
            Predicate::GaugeGrowth { gauge, factor } => {
                let value = snap.gauge(gauge)?;
                let prev = prev_gauge(gauge)?;
                (prev > 0.0 && value.is_finite() && value > prev * factor).then_some(Trip {
                    value,
                    threshold: prev * factor,
                    prev: Some(prev),
                })
            }
            Predicate::GaugeDrop { gauge, baseline } => {
                let value = snap.gauge(gauge)?;
                let prev = prev_gauge(gauge).or(*baseline)?;
                (value < prev).then_some(Trip {
                    value,
                    threshold: prev,
                    prev: Some(prev),
                })
            }
            Predicate::PoolIdleFraction { threshold } => {
                let (mut idle, mut busy) = (0u64, 0u64);
                for c in &snap.counters {
                    if let Some(rest) = c.name.strip_prefix("par/worker/") {
                        if rest.ends_with("/idle_us") {
                            idle += c.delta;
                        } else if rest.ends_with("/busy_us") {
                            busy += c.delta;
                        }
                    }
                }
                let total = idle + busy;
                if total == 0 {
                    return None;
                }
                let frac = idle as f64 / total as f64;
                (frac > *threshold).then_some(Trip {
                    value: frac,
                    threshold: *threshold,
                    prev: None,
                })
            }
        }
    }

    /// Human-readable description of the condition for messages.
    fn describe(&self) -> String {
        match self {
            Predicate::Compare {
                signal,
                cmp,
                threshold,
            } => format!(
                "{}({}) {} {threshold}",
                signal.kind(),
                signal.metric(),
                cmp.as_str()
            ),
            Predicate::GaugeGrowth { gauge, factor } => {
                format!("gauge({gauge}) grew more than {factor}x in one window")
            }
            Predicate::GaugeDrop { gauge, .. } => format!("gauge({gauge}) dropped"),
            Predicate::PoolIdleFraction { threshold } => {
                format!("worker-pool idle fraction gt {threshold}")
            }
        }
    }
}

/// A named, severity-tagged predicate with sustained-window hysteresis.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub severity: Severity,
    pub predicate: Predicate,
    /// Consecutive snapshots the predicate must hold to fire (≥ 1).
    pub sustain: usize,
    /// Consecutive snapshots the predicate must fail to resolve (≥ 1).
    pub clear: usize,
    pub message: String,
}

impl Rule {
    pub fn new(name: &str, severity: Severity, predicate: Predicate, message: &str) -> Rule {
        Rule {
            name: name.to_string(),
            severity,
            predicate,
            sustain: 1,
            clear: 1,
            message: message.to_string(),
        }
    }

    pub fn sustained(mut self, sustain: usize, clear: usize) -> Rule {
        self.sustain = sustain.max(1);
        self.clear = clear.max(1);
        self
    }
}

/// Fired/resolved state of an [`Alert`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    Fired,
    Resolved,
}

impl AlertState {
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Fired => "fired",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One edge-triggered alert transition, carrying the triggering
/// snapshot's coordinates and the observation that tripped the rule.
#[derive(Debug, Clone)]
pub struct Alert {
    pub rule: String,
    pub severity: Severity,
    pub state: AlertState,
    /// Sequence number of the triggering snapshot.
    pub seq: u64,
    pub uptime_s: f64,
    /// Snapshot window the trigger was observed over.
    pub interval_s: Option<f64>,
    /// Live span path at trigger time.
    pub phase: String,
    /// Observed signal value (the last trip for fired; NaN-free).
    pub value: f64,
    pub threshold: f64,
    /// Previous value for rate-of-change rules.
    pub prev: Option<f64>,
    pub message: String,
}

fn num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl Alert {
    /// Renders the alert as a single-line JSON object — the shape used
    /// for timeline annotations (`"kind": "alert"`), the `/alerts`
    /// endpoint log, and the artifact alerts block.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"kind\": \"alert\", \"rule\": ");
        write_json_string(&self.rule, &mut out);
        let _ = write!(
            out,
            ", \"severity\": \"{}\", \"state\": \"{}\", \"seq\": {}, \"uptime_s\": ",
            self.severity.as_str(),
            self.state.as_str(),
            self.seq
        );
        num(self.uptime_s, &mut out);
        out.push_str(", \"interval_s\": ");
        match self.interval_s {
            Some(v) => num(v, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(", \"phase\": ");
        write_json_string(&self.phase, &mut out);
        out.push_str(", \"value\": ");
        num(self.value, &mut out);
        out.push_str(", \"threshold\": ");
        num(self.threshold, &mut out);
        out.push_str(", \"prev\": ");
        match self.prev {
            Some(v) => num(v, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(", \"message\": ");
        write_json_string(&self.message, &mut out);
        out.push('}');
        out
    }
}

#[derive(Debug, Default, Clone)]
struct RuleState {
    consecutive_true: usize,
    consecutive_false: usize,
    active: bool,
    fired: u64,
    last_trip: Option<Trip>,
}

/// Evaluates a rule set against a stream of snapshots.
pub struct AlertEngine {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
    prev_gauges: Vec<(String, f64)>,
    log: Vec<Alert>,
    fired_total: u64,
    resolved_total: u64,
}

impl AlertEngine {
    pub fn new(rules: Vec<Rule>) -> AlertEngine {
        let states = vec![RuleState::default(); rules.len()];
        AlertEngine {
            rules,
            states,
            prev_gauges: Vec::new(),
            log: Vec::new(),
            fired_total: 0,
            resolved_total: 0,
        }
    }

    /// The built-in rule set (see module docs).
    pub fn builtin() -> AlertEngine {
        AlertEngine::new(builtin_rules())
    }

    /// Built-ins plus any extras from `RHB_ALERT_RULES`. Invalid DSL
    /// entries are reported on stderr and skipped — a typo in an env
    /// var must not take down the attack run it was meant to watch.
    pub fn from_env() -> AlertEngine {
        let mut rules = builtin_rules();
        if let Ok(spec) = std::env::var(RULES_ENV) {
            match parse_rules(&spec) {
                Ok(extra) => rules.extend(extra),
                Err(e) => eprintln!("rhb-alert: ignoring {RULES_ENV}: {e}"),
            }
        }
        AlertEngine::new(rules)
    }

    /// Built-ins with sustain/clear forced to 1 — for post-hoc
    /// evaluation of a single end-of-run snapshot, where every window
    /// requirement would otherwise go unmet by construction.
    pub fn postmortem() -> AlertEngine {
        let rules = builtin_rules()
            .into_iter()
            .map(|r| r.sustained(1, 1))
            .collect();
        AlertEngine::new(rules)
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Names of currently-active (fired, unresolved) rules.
    pub fn active(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.active)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// The retained fired/resolved event log, oldest first.
    pub fn log(&self) -> &[Alert] {
        &self.log
    }

    /// Feeds one snapshot through every rule; returns the edge-triggered
    /// transitions (fired and resolved alerts) this snapshot caused.
    /// Also mirrors fire events into `core/alerts/*` counters and the
    /// `core/alerts/active` gauge on the global registry.
    pub fn evaluate(&mut self, snap: &MetricsSnapshot) -> Vec<Alert> {
        let mut events = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            match rule.predicate.evaluate(snap, &self.prev_gauges) {
                Some(trip) => {
                    state.consecutive_true += 1;
                    state.consecutive_false = 0;
                    state.last_trip = Some(trip);
                    if !state.active && state.consecutive_true >= rule.sustain {
                        state.active = true;
                        state.fired += 1;
                        events.push(make_alert(rule, AlertState::Fired, snap, trip));
                    }
                }
                None => {
                    state.consecutive_false += 1;
                    state.consecutive_true = 0;
                    if state.active && state.consecutive_false >= rule.clear {
                        state.active = false;
                        let trip = state.last_trip.take().unwrap_or(Trip {
                            value: 0.0,
                            threshold: 0.0,
                            prev: None,
                        });
                        events.push(make_alert(rule, AlertState::Resolved, snap, trip));
                    }
                }
            }
        }
        self.prev_gauges = snap.gauges.clone();
        for event in &events {
            match event.state {
                AlertState::Fired => {
                    self.fired_total += 1;
                    rhb_telemetry::add_counter("core/alerts/fired", 1);
                    rhb_telemetry::add_counter(&format!("core/alerts/{}", event.rule), 1);
                }
                AlertState::Resolved => {
                    self.resolved_total += 1;
                    rhb_telemetry::add_counter("core/alerts/resolved", 1);
                }
            }
        }
        if !events.is_empty() {
            rhb_telemetry::set_gauge(
                "core/alerts/active",
                self.states.iter().filter(|s| s.active).count() as f64,
            );
        }
        self.log.extend(events.iter().cloned());
        if self.log.len() > LOG_CAP {
            let drop = self.log.len() - LOG_CAP;
            self.log.drain(..drop);
        }
        events
    }

    /// Renders the engine state as the `/alerts` JSON document.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"fired_total\": {},", self.fired_total);
        let _ = writeln!(out, "  \"resolved_total\": {},", self.resolved_total);
        out.push_str("  \"active\": [");
        for (i, name) in self.active().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(name, &mut out);
        }
        out.push_str("],\n  \"rules\": [\n");
        let n = self.rules.len();
        for (i, (rule, state)) in self.rules.iter().zip(&self.states).enumerate() {
            out.push_str("    {\"name\": ");
            write_json_string(&rule.name, &mut out);
            let _ = write!(
                out,
                ", \"severity\": \"{}\", \"condition\": ",
                rule.severity.as_str()
            );
            write_json_string(&rule.predicate.describe(), &mut out);
            let _ = write!(
                out,
                ", \"sustain\": {}, \"clear\": {}, \"active\": {}, \"fired\": {}}}{}",
                rule.sustain,
                rule.clear,
                state.active,
                state.fired,
                if i + 1 == n { "" } else { "," }
            );
            out.push('\n');
        }
        out.push_str("  ],\n  \"log\": [\n");
        let n = self.log.len();
        for (i, alert) in self.log.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&alert.to_json());
            out.push_str(if i + 1 == n { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn make_alert(rule: &Rule, state: AlertState, snap: &MetricsSnapshot, trip: Trip) -> Alert {
    Alert {
        rule: rule.name.clone(),
        severity: rule.severity,
        state,
        seq: snap.seq,
        uptime_s: snap.uptime.as_secs_f64(),
        interval_s: snap.interval.map(|d| d.as_secs_f64()),
        phase: snap.current_span.clone(),
        value: trip.value,
        threshold: trip.threshold,
        prev: trip.prev,
        message: rule.message.clone(),
    }
}

/// The built-in rule set.
pub fn builtin_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "hammer-success-collapse",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::Gauge("core/health/hammer_success_rate".into()),
                cmp: Cmp::Lt,
                threshold: 0.5,
            },
            "rolling hammer verification rate collapsed below 50%",
        )
        .sustained(2, 2),
        Rule::new(
            "templating-yield-starvation",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::Gauge("core/health/templating_yield".into()),
                cmp: Cmp::Lt,
                threshold: 0.25,
            },
            "templating match yield starved below 25%",
        )
        .sustained(2, 2),
        Rule::new(
            "eta-blowup",
            Severity::Warn,
            Predicate::GaugeGrowth {
                gauge: "core/health/eta_s".into(),
                factor: 2.0,
            },
            "attack-time ETA more than doubled in one window (observed rate collapsed vs the \u{a7}VII model)",
        ),
        Rule::new(
            "worker-pool-idle-saturation",
            Severity::Warn,
            Predicate::PoolIdleFraction { threshold: 0.95 },
            "worker pool spent >95% of this window idle",
        )
        .sustained(2, 2),
        Rule::new(
            "eval-p99-latency-breach",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::HistP99("nn/eval/".into()),
                cmp: Cmp::Gt,
                threshold: 0.25,
            },
            "model eval p99 latency breached 250ms",
        ),
        Rule::new(
            "run-class-downgrade",
            Severity::Critical,
            Predicate::GaugeDrop {
                gauge: "core/run_class".into(),
                baseline: Some(2.0),
            },
            "run classification downgraded from full success",
        ),
        Rule::new(
            "attack-stall",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::CounterDelta("core/health/stalls".into()),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
            "attack health model entered a stall",
        ),
        // Totals (not deltas): counters reset at run start, so "any
        // retry happened this run" is deterministic even when another
        // snapshot consumer (artifact finalization) drains the delta
        // between the retry burst and the sampler's next tick.
        Rule::new(
            "recovery-pressure",
            Severity::Info,
            Predicate::Compare {
                signal: Signal::CounterTotal("dram/recovery/retries".into()),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
            "hammer recovery retries observed this run",
        ),
        // Victim-serving SLO: end-to-end request latency of the
        // inference service (rhb-serve). The histogram only exists when
        // a server is running, so offline runs never see this fire.
        Rule::new(
            "serve-slo-breach",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::HistP99("serve/latency_s".into()),
                cmp: Cmp::Gt,
                threshold: 0.5,
            },
            "serving p99 end-to-end latency breached the 500ms SLO",
        )
        .sustained(2, 2),
        // Admission control engaged: the bounded queue shed load this
        // window — expected under hammering interference, worth marking
        // on the timeline either way.
        Rule::new(
            "serve-load-shedding",
            Severity::Info,
            Predicate::Compare {
                signal: Signal::CounterDelta("serve/shed".into()),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
            "inference service shed requests at admission control",
        ),
        // Campaign fleet health: the supervisor's heartbeat exports
        // seconds-since-last-settled-run. A missing gauge makes the
        // rule inert, so non-campaign runs never see it fire.
        Rule::new(
            "campaign-stall",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::Gauge("campaign/stall_s".into()),
                cmp: Cmp::Gt,
                threshold: 120.0,
            },
            "campaign made no progress for 2 minutes (watchdogs and retries may be churning)",
        )
        .sustained(2, 2),
    ]
}

/// Parses the `RHB_ALERT_RULES` DSL: `;`-separated entries of
///
/// ```text
/// name:kind:metric:op:value[:sustain=N][:clear=N][:severity=LEVEL]
/// ```
///
/// with `kind` ∈ `gauge|counter_total|counter_delta|counter_rate|hist_p99`,
/// `op` ∈ `lt|le|gt|ge`, and `severity` ∈ `info|warn|critical`
/// (default `warn`). Example:
///
/// ```text
/// slow-eval:hist_p99:nn/eval/:gt:0.1:sustain=2:severity=critical
/// ```
pub fn parse_rules(spec: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for entry in spec.split(';') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() < 5 {
            return Err(format!(
                "rule '{entry}': expected name:kind:metric:op:value[:k=v...]"
            ));
        }
        let (name, kind, metric, op, value) = (parts[0], parts[1], parts[2], parts[3], parts[4]);
        if name.is_empty() {
            return Err(format!("rule '{entry}': empty name"));
        }
        let signal = match kind {
            "gauge" => Signal::Gauge(metric.to_string()),
            "counter_total" => Signal::CounterTotal(metric.to_string()),
            "counter_delta" => Signal::CounterDelta(metric.to_string()),
            "counter_rate" => Signal::CounterRate(metric.to_string()),
            "hist_p99" => Signal::HistP99(metric.to_string()),
            other => return Err(format!("rule '{name}': unknown signal kind '{other}'")),
        };
        let cmp = Cmp::parse(op).ok_or_else(|| format!("rule '{name}': unknown op '{op}'"))?;
        let threshold: f64 = value
            .parse()
            .map_err(|_| format!("rule '{name}': bad threshold '{value}'"))?;
        let mut rule = Rule::new(
            name,
            Severity::Warn,
            Predicate::Compare {
                signal,
                cmp,
                threshold,
            },
            &format!("{kind}({metric}) {op} {value}"),
        );
        for opt in &parts[5..] {
            let (key, val) = opt
                .split_once('=')
                .ok_or_else(|| format!("rule '{name}': bad option '{opt}' (want k=v)"))?;
            match key {
                "sustain" => {
                    rule.sustain = val
                        .parse::<usize>()
                        .map_err(|_| format!("rule '{name}': bad sustain '{val}'"))?
                        .max(1);
                }
                "clear" => {
                    rule.clear = val
                        .parse::<usize>()
                        .map_err(|_| format!("rule '{name}': bad clear '{val}'"))?
                        .max(1);
                }
                "severity" => {
                    rule.severity = Severity::parse(val)
                        .ok_or_else(|| format!("rule '{name}': bad severity '{val}'"))?;
                }
                other => return Err(format!("rule '{name}': unknown option '{other}'")),
            }
        }
        rules.push(rule);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhb_telemetry::{NoopSink, Telemetry};
    use std::sync::Arc;

    /// A fabricated deterministic snapshot stream: each call installs
    /// the given gauge value and returns the next snapshot.
    struct Stream {
        tel: Telemetry,
    }

    impl Stream {
        fn new() -> Stream {
            let tel = Telemetry::new();
            tel.install(Arc::new(NoopSink));
            Stream { tel }
        }

        fn snap_with_gauge(&self, name: &str, value: f64) -> MetricsSnapshot {
            self.tel.gauge(name, value);
            self.tel.snapshot()
        }
    }

    fn collapse_rule(sustain: usize, clear: usize) -> Rule {
        Rule::new(
            "collapse",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::Gauge("core/health/hammer_success_rate".into()),
                cmp: Cmp::Lt,
                threshold: 0.5,
            },
            "collapsed",
        )
        .sustained(sustain, clear)
    }

    #[test]
    fn sustained_window_fires_only_after_n_consecutive_trips() {
        let stream = Stream::new();
        let mut engine = AlertEngine::new(vec![collapse_rule(3, 1)]);
        let g = "core/health/hammer_success_rate";
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.4)).is_empty());
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.4)).is_empty());
        // A healthy window resets the streak.
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.9)).is_empty());
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.3)).is_empty());
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.3)).is_empty());
        let fired = engine.evaluate(&stream.snap_with_gauge(g, 0.3));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Fired);
        assert_eq!(fired[0].rule, "collapse");
        assert_eq!(fired[0].value, 0.3);
        assert_eq!(fired[0].threshold, 0.5);
        assert_eq!(engine.active(), vec!["collapse"]);
    }

    #[test]
    fn hysteresis_requires_clear_consecutive_healthy_windows() {
        let stream = Stream::new();
        let mut engine = AlertEngine::new(vec![collapse_rule(1, 2)]);
        let g = "core/health/hammer_success_rate";
        let fired = engine.evaluate(&stream.snap_with_gauge(g, 0.1));
        assert_eq!(fired.len(), 1);
        // One healthy window is not enough to resolve...
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.9)).is_empty());
        // ...and a relapse resets the clear streak without re-firing.
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.2)).is_empty());
        assert!(engine.evaluate(&stream.snap_with_gauge(g, 0.9)).is_empty());
        let resolved = engine.evaluate(&stream.snap_with_gauge(g, 0.9));
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        assert!(engine.active().is_empty());
        assert_eq!(engine.fired_total(), 1);
    }

    #[test]
    fn counter_delta_rule_is_edge_triggered_per_window() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        let mut engine = AlertEngine::new(vec![Rule::new(
            "stall",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::CounterDelta("core/health/stalls".into()),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
            "stalled",
        )]);
        tel.add_counter("core/health/stalls", 1);
        let fired = engine.evaluate(&tel.snapshot());
        assert_eq!(fired.len(), 1, "delta 1 > 0 fires");
        // Quiet window: delta 0 resolves.
        let resolved = engine.evaluate(&tel.snapshot());
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
        // Another stall re-fires.
        tel.add_counter("core/health/stalls", 1);
        let fired = engine.evaluate(&tel.snapshot());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Fired);
    }

    #[test]
    fn gauge_growth_detects_eta_blowup() {
        let stream = Stream::new();
        let mut engine = AlertEngine::new(vec![Rule::new(
            "eta-blowup",
            Severity::Warn,
            Predicate::GaugeGrowth {
                gauge: "core/health/eta_s".into(),
                factor: 2.0,
            },
            "blowup",
        )]);
        assert!(
            engine
                .evaluate(&stream.snap_with_gauge("core/health/eta_s", 100.0))
                .is_empty(),
            "first observation has no previous value"
        );
        assert!(engine
            .evaluate(&stream.snap_with_gauge("core/health/eta_s", 150.0))
            .is_empty());
        let fired = engine.evaluate(&stream.snap_with_gauge("core/health/eta_s", 400.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].prev, Some(150.0));
        assert_eq!(fired[0].value, 400.0);
    }

    #[test]
    fn gauge_drop_uses_baseline_on_first_observation() {
        let stream = Stream::new();
        let mut engine = AlertEngine::new(vec![Rule::new(
            "downgrade",
            Severity::Critical,
            Predicate::GaugeDrop {
                gauge: "core/run_class".into(),
                baseline: Some(2.0),
            },
            "downgraded",
        )]);
        // run_class first appears already degraded (1 < baseline 2).
        let fired = engine.evaluate(&stream.snap_with_gauge("core/run_class", 1.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].severity, Severity::Critical);
        assert_eq!(fired[0].prev, Some(2.0));
    }

    #[test]
    fn pool_idle_fraction_sums_worker_deltas() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        let mut engine = AlertEngine::new(vec![Rule::new(
            "idle",
            Severity::Warn,
            Predicate::PoolIdleFraction { threshold: 0.9 },
            "idle",
        )]);
        tel.add_counter("par/worker/0/idle_us", 990);
        tel.add_counter("par/worker/0/busy_us", 5);
        tel.add_counter("par/worker/1/idle_us", 990);
        tel.add_counter("par/worker/1/busy_us", 5);
        let fired = engine.evaluate(&tel.snapshot());
        assert_eq!(fired.len(), 1);
        assert!((fired[0].value - 1980.0 / 1990.0).abs() < 1e-9);
        // Busy window: fraction below threshold resolves.
        tel.add_counter("par/worker/0/busy_us", 10_000);
        let resolved = engine.evaluate(&tel.snapshot());
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
    }

    #[test]
    fn hist_p99_prefix_rule_sees_only_moving_histograms() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        let mut engine = AlertEngine::new(vec![Rule::new(
            "slow-eval",
            Severity::Warn,
            Predicate::Compare {
                signal: Signal::HistP99("nn/eval/".into()),
                cmp: Cmp::Gt,
                threshold: 0.25,
            },
            "slow",
        )]);
        tel.observe("nn/eval/fc_s", 2.0);
        tel.observe("other/op_s", 99.0);
        let fired = engine.evaluate(&tel.snapshot());
        assert_eq!(fired.len(), 1, "slow eval histogram trips the rule");
        assert!(fired[0].value >= 2.0 * 0.5, "p99 near the observed value");
        // No new samples: the digest still holds 2.0 but the window saw
        // nothing, so the rule resolves rather than latching forever.
        let resolved = engine.evaluate(&tel.snapshot());
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].state, AlertState::Resolved);
    }

    #[test]
    fn identical_snapshot_streams_produce_identical_alert_trails() {
        let run = || -> Vec<String> {
            let stream = Stream::new();
            let mut engine = AlertEngine::new(builtin_rules());
            let mut trail = Vec::new();
            for v in [0.9, 0.4, 0.4, 0.4, 0.9, 0.9, 0.9] {
                stream.tel.gauge("core/health/templating_yield", v * 0.3);
                for a in
                    engine.evaluate(&stream.snap_with_gauge("core/health/hammer_success_rate", v))
                {
                    trail.push(format!(
                        "{}@{}:{}={}",
                        a.rule,
                        a.seq,
                        a.state.as_str(),
                        a.value
                    ));
                }
            }
            trail
        };
        let a = run();
        assert_eq!(a, run(), "alert trail must be deterministic");
        assert!(!a.is_empty());
    }

    #[test]
    fn dsl_parses_rules_with_options() {
        let rules = parse_rules(
            "slow-eval:hist_p99:nn/eval/:gt:0.1:sustain=2:severity=critical; \
             flips:counter_rate:dram/bits_flipped:lt:0.5:clear=3",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "slow-eval");
        assert_eq!(rules[0].sustain, 2);
        assert_eq!(rules[0].severity, Severity::Critical);
        assert_eq!(
            rules[0].predicate,
            Predicate::Compare {
                signal: Signal::HistP99("nn/eval/".into()),
                cmp: Cmp::Gt,
                threshold: 0.1,
            }
        );
        assert_eq!(rules[1].clear, 3);
        assert_eq!(rules[1].severity, Severity::Warn);
    }

    #[test]
    fn dsl_rejects_malformed_entries() {
        assert!(parse_rules("short:gauge:x").is_err());
        assert!(parse_rules("r:nope:x:lt:1").is_err());
        assert!(parse_rules("r:gauge:x:between:1").is_err());
        assert!(parse_rules("r:gauge:x:lt:abc").is_err());
        assert!(parse_rules("r:gauge:x:lt:1:sustain=zero").is_err());
        assert!(parse_rules("r:gauge:x:lt:1:bogus=1").is_err());
        assert!(parse_rules("").unwrap().is_empty());
        assert!(parse_rules(" ; ").unwrap().is_empty());
    }

    #[test]
    fn alert_json_is_one_line_and_escaped() {
        let alert = Alert {
            rule: "a\"b".into(),
            severity: Severity::Critical,
            state: AlertState::Fired,
            seq: 7,
            uptime_s: 1.5,
            interval_s: Some(0.25),
            phase: "pipeline/hammering".into(),
            value: f64::NAN,
            threshold: 0.5,
            prev: None,
            message: "m".into(),
        };
        let json = alert.to_json();
        assert!(!json.contains('\n'));
        assert!(json.contains("\"rule\": \"a\\\"b\""));
        assert!(json.contains("\"value\": null"), "NaN renders as null");
        assert!(json.contains("\"seq\": 7"));
        assert!(json.contains("\"state\": \"fired\""));
    }

    #[test]
    fn render_json_lists_rules_counts_and_log() {
        let stream = Stream::new();
        let mut engine = AlertEngine::new(vec![collapse_rule(1, 1)]);
        engine.evaluate(&stream.snap_with_gauge("core/health/hammer_success_rate", 0.1));
        let doc = engine.render_json();
        assert!(doc.contains("\"fired_total\": 1"));
        assert!(doc.contains("\"active\": [\"collapse\"]"));
        assert!(doc.contains("\"kind\": \"alert\""));
        assert!(doc.contains("\"condition\": \"gauge(core/health/hammer_success_rate) lt 0.5\""));
    }

    #[test]
    fn builtin_rules_cover_the_documented_failure_modes() {
        let names: Vec<String> = builtin_rules().into_iter().map(|r| r.name).collect();
        for expected in [
            "hammer-success-collapse",
            "templating-yield-starvation",
            "eta-blowup",
            "worker-pool-idle-saturation",
            "eval-p99-latency-breach",
            "run-class-downgrade",
            "attack-stall",
            "recovery-pressure",
            "serve-slo-breach",
            "serve-load-shedding",
            "campaign-stall",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn log_is_bounded() {
        let tel = Telemetry::new();
        tel.install(Arc::new(NoopSink));
        let mut engine = AlertEngine::new(vec![Rule::new(
            "tick",
            Severity::Info,
            Predicate::Compare {
                signal: Signal::CounterDelta("c".into()),
                cmp: Cmp::Gt,
                threshold: 0.0,
            },
            "tick",
        )]);
        for _ in 0..400 {
            tel.add_counter("c", 1);
            engine.evaluate(&tel.snapshot());
            engine.evaluate(&tel.snapshot());
        }
        assert!(engine.log().len() <= LOG_CAP);
    }
}
