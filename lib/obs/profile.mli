(** Resource-attribution profiling (the third leg of the observability
    layer, next to {!Obs} counters and {!Span} timelines).

    Where {!Span} answers "what ran, in what order", this module
    answers "what did it {e cost}": every span scope is annotated with
    the [Gc.quick_stat] delta it covers (minor/major/promoted words and
    collection counts, attributed inclusively to the span-name tree and
    exclusively to each node's own code), every [Nue_parallel.Pool]
    region records a per-worker busy/idle timeline with chunk-claim
    counts, the speculative routing rounds report their
    committed/misspeculated outcomes, and from the pool timeline the
    profiler computes a {e measured} Amdahl serial fraction for the
    profiled window — the number the next optimisation PR aims at,
    instead of a hunch.

    Like the rest of the layer, profiling is {e off by default} and
    free while off: {!enabled} is a single atomic load, tested by the
    pool before any clock read. Enabling it switches on the recorder's
    allocation view: every span scope charges the wall time and [Gc]
    deltas since the last scope boundary to the innermost open scope's
    node of the {!Recorder} tree — whether or not the span view fills
    the event buffer. Profiling never changes routing results: it only
    reads [Gc] statistics and the clock.

    Pool tasks are captured like every other view ({!Recorder.mark}): a
    worker's [nue.dest] subtree lands beneath the caller's open
    [nue.layer] node, where it belongs. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** Profiling state; [false] at startup. *)

val enable : unit -> unit
(** Switch the allocation view on. Does not reset accumulated state —
    call {!reset} and [Span.reset] to open a fresh window. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop the pool regions and rounds and start a new profiling window
    at [Obs.now ()]. The allocation tree is the recorder's: clear it
    with [Span.reset]. *)

(** {1 Per-phase GC/alloc accounting}

    One node per span-name stack path. "Self" is what the node's scope
    cost while it was the innermost one on its domain; "inclusive" adds
    every descendant, including subtrees merged from pool tasks.
    Seconds are the exception: inclusive seconds are the scope's own
    wall time, since wall time does not add across domains. Collection
    counts are inclusive only. *)

type alloc_node = {
  an_name : string;
  an_calls : int;
  an_seconds : float;  (** inclusive wall seconds *)
  an_self_seconds : float;
  an_minor_words : float;
      (** inclusive words allocated in the minor heap — exact (read
          from the young pointer via [Gc.minor_words]) *)
  an_self_minor_words : float;
  an_major_words : float;
      (** inclusive words allocated directly major — [Gc.quick_stat]
          granularity: the counter is flushed at collection points, so
          a direct major allocation can surface in the enclosing scope
          rather than the innermost one *)
  an_self_major_words : float;
  an_promoted_words : float;  (** inclusive minor-to-major promotions *)
  an_minor_collections : int;
  an_major_collections : int;
  an_children : alloc_node list;  (** sorted by inclusive alloc, descending *)
}

(** {1 Domain-pool timelines} *)

type worker_sample = {
  ws_busy_seconds : float;  (** total seconds inside [body] chunks *)
  ws_chunks : int;  (** chunks this participant claimed *)
  ws_segments : (float * float) array;
      (** busy intervals [(t0, t1)], in claim order, capped at
          {!segment_cap} — totals above stay exact past the cap *)
  ws_dropped_segments : int;
}

type pool_region = {
  pr_label : string;  (** the [?label] given to [Pool.run]/[run_with] *)
  pr_jobs : int;  (** participants (caller included) *)
  pr_tasks : int;  (** the [~n] of the region *)
  pr_t0 : float;
  pr_t1 : float;
  pr_workers : worker_sample array;
      (** index 0 is the calling domain, then workers in spawn order *)
}

val segment_cap : int
(** Busy segments kept per worker per region (512). *)

val record_region : pool_region -> unit
(** Called by [Nue_parallel.Pool] at join (no-op while disabled). The
    region's wall and busy totals always enter the serial-fraction
    accounting; the region record itself is kept for the report up to a
    cap (see {!report}). Regions and rounds go to one process-wide log,
    so a pool nested in a pool task is recorded too. *)

(** {1 Speculation outcomes}

    One record per speculative routing round (see [Nue_core.Nue]):
    [rd_committed] journals replayed cleanly onto the authoritative
    CDG, [rd_misspeculated] replays that failed and fell back to a live
    recompute, [rd_live] destinations routed live for any reason
    (misspeculations, skipped pool tasks, and singleton rounds). *)

type round = {
  rd_size : int;
  rd_committed : int;
  rd_misspeculated : int;
  rd_live : int;
}

val record_round : round -> unit
(** No-op while disabled. *)

(** {1 The report} *)

type report = {
  p_wall_seconds : float;  (** window: {!reset} to {!report} *)
  p_serial_seconds : float;
      (** wall time outside every pool region — the measured serial
          part: layer setup, journal replays, [Balance.update_weights]
          commits, result folding *)
  p_parallel_busy_seconds : float;
      (** total busy seconds across all participants of all regions —
          the measured parallelizable part *)
  p_pool_wall_seconds : float;  (** summed wall of the pool regions *)
  p_serial_fraction : float;
      (** measured Amdahl serial fraction:
          [serial / (serial + parallel_busy)], the fraction of a
          one-job run this window would spend outside pool regions.
          In [[0, 1]]; [1.0] when nothing ran on the pool. *)
  p_utilization : float;
      (** busy / (region wall x jobs), summed over regions: how much of
          the paid-for domain time did useful work *)
  p_max_jobs : int;  (** widest pool region observed (0 when none) *)
  p_regions : pool_region list;  (** record order, capped *)
  p_regions_dropped : int;
  p_rounds : round list;  (** record order, capped *)
  p_rounds_dropped : int;
  p_committed : int;  (** totals over every round, never capped *)
  p_misspeculated : int;
  p_live : int;
  p_alloc : alloc_node list;
      (** per-phase GC/alloc tree, roots sorted by inclusive alloc *)
}

val report : unit -> report
(** Snapshot the log and, while the allocation view is on, the calling
    domain's allocation tree ([p_alloc] is empty while it is off). Does
    not reset. *)

val amdahl_speedup : report -> jobs:int -> float
(** The speedup Amdahl's law predicts for this report's measured serial
    fraction at [jobs] domains: [1 / (f + (1 - f) / jobs)]. *)

(** {1 Rendering} *)

val alloc_flamegraph : ?width:int -> report -> string
(** The alloc-weighted sibling of {!Span.flamegraph}: one line per
    span-name stack path, children indented, sorted by inclusive
    allocated words (minor + major) descending, with self words and
    inclusive seconds per line. Deterministic given the report. *)

val timeline : ?width:int -> report -> string
(** Per-region utilization timelines: one bar per participant, bucketed
    over the region's wall clock ([#] busy >= 2/3 of the bucket, [+]
    partially busy, [.] idle), with busy seconds and chunk counts. *)
