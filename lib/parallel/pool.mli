(** Domain pool for sharding index ranges across OCaml 5 domains.

    [run ~n body] executes [body i] for every [i] in [0 .. n-1],
    distributing chunks of indices over [jobs] domains (the caller
    participates, so [jobs = 4] spawns three workers). Distribution is
    dynamic: an atomic cursor hands out the next chunk to whichever
    domain finishes first, so uneven task costs balance without
    static partitioning. With [jobs = 1] (the default until
    {!set_default_jobs}) no domain is ever spawned and the loop runs
    inline — the sequential path is the parallel path with one
    participant, not a separate code path.

    Determinism discipline: [body] must write its result into a slot
    determined by the index (e.g. [results.(i) <- ...]), never append to
    shared state. While any observability view is on, every task is one
    capture ({!Nue_obs.Recorder.mark}/[cut]) on whichever domain ran it,
    and the caller absorbs the captures in index order before [run]
    returns: the task's span events are re-stamped into the caller's
    buffer, and its scope subtree (span ticks, [Obs] counters and
    timers, allocation) merges under the caller's open scope. Traces,
    flamegraphs, counter totals and allocation trees are therefore the
    same for every job count. Other domain-local state (e.g. provenance
    trails) must travel through the result slots and be committed by
    the caller in index order.

    Exceptions raised by [body] cancel the remaining chunks, are
    re-raised on the caller after all domains have joined (caller's own
    exception first, then the first failing worker by index), and do
    not lose what the finished tasks recorded.

    When [Nue_obs.Profile] is enabled, every run additionally records a
    profiling region named by [?label]: region wall clock, and per
    participant the busy segments and chunk-claim counts that feed the
    measured Amdahl serial-fraction accounting. None of this runs while
    the profiler is disabled. *)

val set_default_jobs : int -> unit
(** Set the process-wide default job count (clamped to >= 1). Read at
    [run] time by every call that does not pass [~jobs]. Initialized to
    1, or to [NUE_JOBS] when that environment variable holds a positive
    integer; an invalid [NUE_JOBS] value prints an error on stderr and
    keeps the default of 1. *)

val default_jobs : unit -> int

val run : ?jobs:int -> ?chunk:int -> ?label:string -> n:int -> (int -> unit) -> unit
(** [run ~n body] runs [body 0 .. body (n-1)] across the pool.
    [chunk] (default 1) is the number of consecutive indices claimed at
    a time — raise it when tasks are tiny. [label] (default ["pool"])
    names the region in profiling reports (see below); it has no effect
    while the profiler is disabled. *)

val run_with :
  ?jobs:int ->
  ?chunk:int ->
  ?label:string ->
  n:int ->
  init:(unit -> 'ctx) ->
  ('ctx -> int -> unit) ->
  unit
(** Like {!run}, but each participating domain calls [init] once, at
    its first task, and threads the resulting context through its
    [body] calls — per-domain scratch (arrays, heaps, graph clones)
    without locking. A domain that claims no task never calls it.
    [init] runs inside the first task's capture, so what it records
    (counters, say) reaches the caller with that task. *)
