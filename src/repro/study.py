"""One-object façade over the whole reproduction pipeline.

:class:`Study` wires together the synthetic Internet, discovery, the
measurement application, both campaigns, and every analysis, so that
downstream code gets the paper in three lines::

    from repro.study import Study

    study = Study.run(scale=0.1, seed=7)
    print(study.report())

A study can be archived with :meth:`save` and re-hydrated with
:meth:`load` (the world is rebuilt deterministically from the saved
manifest, exactly as the ``ecnudp report`` command does).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core.analysis.correlation import CorrelationTable, analyze_correlation
from .core.analysis.differential import DifferentialAnalysis
from .core.analysis.geographic import GeographicDistribution, analyze_geography
from .core.analysis.pathanalysis import PathAnalysis, analyze_campaign
from .core.analysis.quic_ecn import QUICECNSummary, analyze_quic_ecn
from .core.analysis.reachability import ReachabilitySummary, analyze_reachability
from .core.analysis.regional import RegionalReachability, analyze_regional
from .core.analysis.tcp_ecn import TCPECNSummary, analyze_tcp_ecn
from .core.analysis.uncertainty import HeadlineIntervals, headline_intervals
from .core.analysis.validation import InferenceQuality, validate_study
from .core.discovery import PoolDiscovery
from .core.traces import TraceSet, TracerouteCampaign
from .ioutil import atomic_write_text
from .obs import (
    DETAIL_EPOCH,
    PathTracer,
    RunTelemetry,
    canonical_events,
    export_chrome_trace,
    render_events_jsonl,
)
from .reporting.export import (
    export_figure_data,
    export_metrics_json,
    export_spans_json,
    export_summary_json,
    export_telemetry_json,
    export_traces_csv,
)
from .reporting.report import full_report
from .scenario.internet import SyntheticInternet
from .scenario.timeline import EpochDrift, drifted_params


@dataclass
class Study:
    """A completed measurement study plus lazily computed analyses."""

    world: SyntheticInternet
    traces: TraceSet
    campaign: TracerouteCampaign
    scale: float
    seed: int
    #: Merged metric snapshot when the study ran with observation on
    #: (``None`` otherwise — archival output stays byte-identical).
    metrics: dict | None = None
    #: Run telemetry (shard timing, retries) when observation was on.
    telemetry: RunTelemetry | None = None
    #: The packet tracer used during the run, if any.
    tracer: PathTracer | None = None
    #: Assembled span list (study root first) when span recording was
    #: on; canonically identical for any worker count.
    spans: list | None = None
    #: Structured event stream when event collection was on, ordered
    #: by ``(shard, seq)``; byte-identical for any worker count.
    events: list | None = None
    #: Longitudinal drift the world was built under (``None`` = the
    #: legacy undrifted world; archives stay byte-identical then).
    drift: EpochDrift | None = None
    #: Summary of the fault plan the study ran under (``None`` for an
    #: unfaulted run); :meth:`save` records it as the manifest's
    #: ``chaos`` caveat whether or not metrics were collected.
    chaos: dict | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def run(
        cls,
        scale: float = 0.1,
        seed: int = 20150401,
        discover: bool = True,
        traceroutes: bool = True,
        workers: int = 0,
        progress=None,
        collect_metrics: bool = False,
        trace_filter: str | None = None,
        faults=None,
        chaos_seed: int = 0,
        record_spans: bool | str = False,
        collect_events: bool = False,
        event_log=None,
        obs_dir: str | Path | None = None,
        profile: bool = False,
        world: SyntheticInternet | None = None,
        targets: list[int] | None = None,
        pool=None,
        quic: bool = False,
        drift: EpochDrift | None = None,
    ) -> "Study":
        """Execute the full §3 methodology at the given scale.

        The study runs as the shard plan of :mod:`repro.runner`:
        ``workers=0`` (the default) executes the shards one after
        another in this process, against this study's world;
        ``workers=N`` spreads them across ``N`` worker processes.  Both
        go through the same wire codec and merge, so results are
        bit-identical by construction — hermetic measurement epochs
        make every trace a pure function of ``(params, trace id)``.

        ``collect_metrics=True`` turns the :mod:`repro.obs` layer on
        for the measurement phase (never discovery, which runs once in
        the parent), one registry per shard, merged.  ``trace_filter``
        records the per-hop history of matching packets on
        :attr:`tracer` (a :class:`~repro.obs.PathTracer`); each shard
        traces its own packets and the streams merge in shard order,
        identically for any ``workers`` value.

        ``faults`` turns on the chaos layer (:mod:`repro.faults`): pass
        a chaos-profile name (``"light"`` / ``"default"`` / ``"heavy"``
        / ``"reroute"``) or a ready-made
        :class:`~repro.faults.FaultPlan`.  A named profile is expanded
        into a plan with :func:`~repro.faults.generate_fault_plan`
        seeded by ``chaos_seed``; either way the plan is a pure value,
        so chaotic runs stay bit-identical for any ``workers`` value.

        ``world`` reuses an existing synthetic Internet instead of
        building one — it must have been built from exactly
        ``params_for_scale(scale, seed)``.  Hermetic measurement epochs
        make worlds reusable across studies: a rerun against a cached
        world is bit-identical to one against a fresh build, **provided
        discovery is not rerun** (DNS pool rotation is stateful, so a
        second discovery sees a different rotation).  Callers reusing a
        world must therefore also pass ``targets`` captured from the
        first run's discovery; the study server caches the pair.
        ``pool`` runs a sharded study's shards on a shared
        :class:`~repro.runner.SharedWorkerPool` rather than an owned
        per-study executor (requires ``workers > 0``).

        ``collect_events=True`` turns on the structured event log
        (:mod:`repro.obs.events`): epoch starts and chaos
        installations land on :attr:`events`, ordered by
        ``(shard, seq)`` and byte-identical for any ``workers`` value,
        and :meth:`save` exports them as ``events.jsonl``.
        ``event_log`` is the live, wall-clock counterpart: a caller's
        :class:`~repro.obs.EventLog` (the study server's, typically)
        that the runner narrates shard lifecycle into — dispatch,
        retries, gang recoveries.  It never joins the determinism
        contract.

        ``record_spans`` turns on the hierarchical span timeline
        (``True`` = epoch detail, or pass a
        :mod:`~repro.obs.spans` detail level); the assembled span list
        lands on :attr:`spans` and is canonically identical for any
        ``workers`` value.  ``obs_dir`` arms crash flight recorders
        (``flight-*.json`` dumps on shard death or runner recovery) and
        receives one cProfile dump per shard when ``profile`` is on.

        ``quic=True`` adds the fourth probe family: a QUIC-like
        connection per server performing RFC 9000 §13.4 ECN count
        validation after the paper's four measurements (see
        :attr:`quic_ecn` for the resulting analysis).  The probe runs
        after the legacy phases inside each epoch, so studies with
        ``quic=False`` remain byte-identical to pre-QUIC archives.

        ``drift`` builds the world from longitudinally drifted
        parameters (:mod:`repro.scenario.timeline`) — what one epoch
        of a campaign (:mod:`repro.campaign`) runs.  The drift is
        recorded in the archive manifest and rides into shard workers,
        so drifted runs stay bit-identical for any ``workers`` value and
        :meth:`load` rebuilds the same drifted world.  A ``world``
        passed alongside a drift must have been built from exactly
        ``drifted_params(scale, seed, drift)``.
        """
        span_detail: str | None = None
        if record_spans:
            span_detail = DETAIL_EPOCH if record_spans is True else record_spans
        if profile and obs_dir is None:
            raise ValueError("profile=True needs obs_dir to write profiles into")
        if pool is not None and workers <= 0:
            raise ValueError("pool= requires workers > 0 (sharded execution)")
        tracer = PathTracer(match=trace_filter) if trace_filter is not None else None
        if world is None:
            world = SyntheticInternet(drifted_params(scale, seed, drift))
        fault_plan = None
        if faults is not None:
            from .faults import FaultPlan, generate_fault_plan

            if isinstance(faults, FaultPlan):
                fault_plan = faults
            else:
                fault_plan = generate_fault_plan(
                    world, profile=faults, chaos_seed=chaos_seed
                )
            if not fault_plan.events:
                fault_plan = None
        if targets is None and discover:
            report = PoolDiscovery(
                world.vantage_hosts["ugla-wired"],
                world.dns_addr,
                world.pool.zone_names(),
            ).run()
            targets = report.addresses
        from .runner import run_study_parallel

        telemetry = RunTelemetry() if collect_metrics else None
        span_sink: list | None = [] if span_detail is not None else None
        event_sink: list | None = [] if collect_events else None
        traces, campaign = run_study_parallel(
            scale=scale,
            seed=seed,
            workers=workers,
            targets=targets,
            world=world,
            traceroutes=traceroutes,
            progress=progress,
            fault_plan=fault_plan,
            telemetry=telemetry,
            span_detail=span_detail,
            span_sink=span_sink,
            event_sink=event_sink,
            tracer=tracer,
            event_log=event_log,
            flight_dir=obs_dir,
            profile_dir=obs_dir if profile else None,
            pool=pool,
            quic=quic,
            drift=drift,
        )
        return cls(
            world=world,
            traces=traces,
            campaign=campaign,
            scale=scale,
            seed=seed,
            metrics=telemetry.metrics if telemetry is not None else None,
            telemetry=telemetry,
            tracer=tracer,
            spans=span_sink,
            events=event_sink,
            drift=drift,
            chaos=fault_plan.summary() if fault_plan is not None else None,
        )

    # ------------------------------------------------------------------
    # Analyses (cached)
    # ------------------------------------------------------------------
    def _cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def geography(self) -> GeographicDistribution:
        return self._cached(
            "geo", lambda: analyze_geography(self.traces.server_addrs, self.world.geo)
        )

    @property
    def reachability(self) -> ReachabilitySummary:
        return self._cached("reach", lambda: analyze_reachability(self.traces))

    @property
    def tcp_ecn(self) -> TCPECNSummary:
        return self._cached("tcp", lambda: analyze_tcp_ecn(self.traces))

    @property
    def differential_plain_only(self) -> DifferentialAnalysis:
        return self._cached(
            "diff_a", lambda: DifferentialAnalysis(self.traces, "plain-only")
        )

    @property
    def differential_ect_only(self) -> DifferentialAnalysis:
        return self._cached(
            "diff_b", lambda: DifferentialAnalysis(self.traces, "ect-only")
        )

    @property
    def paths(self) -> PathAnalysis:
        return self._cached(
            "paths", lambda: analyze_campaign(self.campaign, self.world.noisy_as_map)
        )

    @property
    def correlation(self) -> CorrelationTable:
        return self._cached("corr", lambda: analyze_correlation(self.traces))

    @property
    def quic_ecn(self) -> QUICECNSummary:
        """QUIC §13.4 validation outcomes vs raw-UDP reachability.

        Empty (``total == 0``) when the study ran without the QUIC
        probe family; report/save skip the section then, keeping
        legacy artefacts byte-identical.
        """
        return self._cached("quic", lambda: analyze_quic_ecn(self.traces))

    @property
    def regional(self) -> list[RegionalReachability]:
        return self._cached(
            "regional", lambda: analyze_regional(self.traces, self.world.geo)
        )

    def intervals(self, confidence: float = 0.95) -> HeadlineIntervals:
        """Bootstrap CIs for the headline numbers."""
        return headline_intervals(self.traces, confidence=confidence)

    def validate(self) -> list[InferenceQuality]:
        """Score the §4 inference rules against deployed ground truth."""
        return validate_study(self.world, self.traces, self.campaign)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Every table and figure, as text, in the paper's order."""
        quic = self.quic_ecn
        return full_report(
            self.geography,
            self.reachability,
            self.differential_plain_only,
            self.differential_ect_only,
            self.tcp_ecn,
            self.campaign,
            self.paths,
            self.correlation,
            quic=quic if quic.total else None,
        )

    def save(self, directory: str | Path, run_id: str | None = None) -> Path:
        """Archive the study (manifest + datasets + summary + CSVs).

        Every artefact is written atomically (temp file +
        ``os.replace``), so a concurrent reader — the study server
        streams archives while sibling studies are still saving — can
        never observe a partially written file.

        ``run_id`` additionally registers the archive in the results
        tree's top-level ``index.json`` (the directory's parent is
        taken as the tree root).  The archive's own contents are
        byte-identical with or without a run id: run metadata lives in
        the index, not the manifest, which keeps served artefacts
        bit-identical to a direct ``Study.run().save()``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: dict = {"scale": self.scale, "seed": self.seed}
        if self.drift is not None:
            # Drifted worlds cannot be rebuilt from (scale, seed)
            # alone; the manifest carries the drift so load() and
            # `ecnudp report` re-derive the identical world.  Absent
            # for undrifted runs, keeping legacy archives byte-stable.
            manifest["drift"] = self.drift.to_dict()
        if self.chaos is not None:
            # Record that the archived data came from a chaotic run —
            # load() rebuilds a pristine world, so ground-truth
            # comparisons against these traces need this caveat.
            manifest["chaos"] = self.chaos
        atomic_write_text(directory / "manifest.json", json.dumps(manifest))
        self.traces.save(directory / "traces.json")
        self.campaign.save(directory / "traceroutes.json")
        quic = self.quic_ecn
        export_summary_json(
            directory / "summary.json",
            self.geography,
            self.reachability,
            self.tcp_ecn,
            self.paths,
            self.correlation,
            quic=quic if quic.total else None,
        )
        export_traces_csv(directory / "traces.csv", self.traces)
        # Observability artefacts are written only when observation was
        # on: a study run with metrics disabled archives byte-identical
        # output to one from a build without the obs layer at all.
        if self.metrics is not None:
            export_metrics_json(directory / "metrics.json", self.metrics)
        if self.telemetry is not None:
            export_telemetry_json(directory / "telemetry.json", self.telemetry)
        if self.spans is not None:
            export_spans_json(directory / "spans.json", self.spans)
            export_chrome_trace(self.spans, directory / "trace.json")
        if self.events is not None:
            # Canonical form (wall stripped, (shard, seq) order), so
            # events.jsonl is byte-identical for any worker count.
            atomic_write_text(
                directory / "events.jsonl",
                render_events_jsonl(canonical_events(self.events)),
            )
        export_figure_data(
            directory / "figures",
            self.reachability,
            self.tcp_ecn,
            self.differential_plain_only,
            self.differential_ect_only,
            self.tcp_ecn.pct_negotiated,
        )
        atomic_write_text(directory / "report.txt", self.report() + "\n")
        if run_id is not None:
            from .serve.index import StudyIndex

            StudyIndex(directory.parent).register(
                run_id, directory, scale=self.scale, seed=self.seed
            )
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Study":
        """Re-hydrate a saved study (world rebuilt from the manifest)."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        scale, seed = manifest["scale"], manifest["seed"]
        drift = None
        if "drift" in manifest:
            drift = EpochDrift.from_dict(manifest["drift"])
        spans = None
        spans_path = directory / "spans.json"
        if spans_path.exists():
            spans = json.loads(spans_path.read_text())["spans"]
        return cls(
            world=SyntheticInternet(drifted_params(scale, seed, drift)),
            traces=TraceSet.load(directory / "traces.json"),
            campaign=TracerouteCampaign.load(directory / "traceroutes.json"),
            scale=scale,
            seed=seed,
            spans=spans,
            drift=drift,
            chaos=manifest.get("chaos"),
        )
