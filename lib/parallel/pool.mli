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
    shared state. The per-domain [Obs] counter shards are drained on
    each worker when its loop ends and absorbed on the calling domain in
    worker-index order before [run] returns, so merged counter totals
    are a function of the work performed, not of the schedule. [Span]
    events are captured per task on whichever domain ran it
    ({!Nue_obs.Span.cut}) and absorbed by the caller in index order, so
    a span trace is byte-identical for every job count. Other
    domain-local state (e.g. provenance trails) must travel through the
    result slots and be committed by the caller in index order.

    Exceptions raised by [body] cancel the remaining chunks, are
    re-raised on the caller after all domains have joined (caller's own
    exception first, then the first failing worker by index), and do
    not lose already-drained shards.

    When [Nue_obs.Profile] is enabled, every run additionally records a
    profiling region named by [?label]: region wall clock, and per
    participant the busy segments and chunk-claim counts that feed the
    measured Amdahl serial-fraction accounting. Worker profile shards
    (per-span alloc trees) are absorbed at join in worker-index order,
    exactly like the counter shards; none of this runs while the
    profiler is disabled. *)

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
(** Like {!run}, but each participating domain calls [init] once before
    its first chunk and threads the resulting context through its
    [body] calls — per-domain scratch (arrays, heaps, graph clones)
    without locking. [init] runs on the worker domain itself, so it
    should record no spans: on a worker they are not captured. *)
