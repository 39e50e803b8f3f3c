"""User-facing toolkit: sessions, reports, flat database, recommendations."""

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisCache", "AnalysisSession", "CarriedMisses", "FRAGMENTATION",
    "FUSION", "SessionDiff", "SweepOutcome", "SweepTask",
    "build_sweep_manifest", "default_jobs",
    "diff_sessions", "miss_curve", "program_fingerprint", "render_html",
    "run_sweep", "write_html", "render_curve", "working_set_knees",
    "FlatDatabase", "INTERCHANGE", "IRREGULAR", "PatternRow", "ROOT",
    "Recommendation", "STRIP_MINE_FUSION", "ScopeTree", "TIME_LOOP", "Viewer",
    "analyze", "classify_pattern", "dest_breakdown", "export_xml",
    "fragmentation_misses", "irregular_misses", "irregular_total",
    "recommend", "render_fragmentation", "render_table2",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("AnalysisCache", "program_fingerprint"),
    "carried": ("CarriedMisses",),
    "diff": ("SessionDiff", "diff_sessions"),
    "htmlreport": ("render_html", "write_html"),
    "misscurve": ("miss_curve", "render_curve", "working_set_knees"),
    "flatdb": ("FlatDatabase", "PatternRow"),
    "recommend": ("FRAGMENTATION", "FUSION", "INTERCHANGE", "IRREGULAR",
                  "Recommendation", "STRIP_MINE_FUSION", "TIME_LOOP",
                  "classify_pattern", "recommend"),
    "report": ("dest_breakdown", "fragmentation_misses", "irregular_misses",
               "irregular_total", "render_fragmentation", "render_table2"),
    "scopetree": ("ROOT", "ScopeTree"),
    "session": ("AnalysisSession", "analyze"),
    "sweep": ("SweepOutcome", "SweepTask", "build_sweep_manifest",
              "default_jobs", "run_sweep"),
    "viewer": ("Viewer",),
    "xmlout": ("export as export_xml",),
})
