(** Dependency-free counter/timer registry (the observability layer).

    Every hot layer of the system (CDG construction, the constrained
    Dijkstra, the Fibonacci heap, the engines, the flit simulator)
    registers named monotonic counters and scoped timers here at module
    initialization. Instrumentation is {e off by default}: while
    disabled, {!incr}/{!add} are a single flag test and {!time} is a
    plain call of its argument — no allocation, no clock read — so the
    counters can live inside inner loops without a measurable cost.

    Registration (name → handle) is global and process-wide, matching
    how the paper's quantities (omega-memoization effectiveness, heap op
    counts, per-engine wall time) are reported: as totals over a run.
    The {e values}, however, are sharded per domain: every domain owns a
    private set of cells (reached through domain-local storage), so
    concurrent increments from a domain pool never race. A worker drains
    its shard when its work ends ({!drain_shard}) and the spawning
    domain folds it in ({!absorb_shard}); [Nue_parallel.Pool] does this
    in worker-index order, making merged totals a function of the work
    performed, not of the schedule. On a single domain nothing changes:
    {!snapshot}/{!reset}/{!peek} act on the calling domain's shard, and
    drivers that want per-phase numbers bracket the phase with {!reset}
    and {!snapshot} as before.

    This library deliberately depends on nothing (not even [unix]):
    timers read the clock through {!set_clock}, which the pipeline
    installs as [Unix.gettimeofday] at link time, falling back to
    [Sys.time] otherwise. *)

type counter
(** A named monotonic counter. Registration is idempotent: two
    [counter "x"] calls return the same cell. *)

type timer
(** A named accumulating timer: total seconds plus activation count. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** Instrumentation state; [false] at startup. *)

val enable : unit -> unit

val disable : unit -> unit

val debug : unit -> bool
(** Debug mode; [false] at startup. While set, unbalanced span exits
    ({!Span.exit}) raise [Invalid_argument]; otherwise they saturate
    (the unmatched call is dropped and the buffer stays well-nested). *)

val set_debug : bool -> unit

val set_clock : (unit -> float) -> unit
(** Install the wall-clock source used by {!time} (seconds, any fixed
    epoch). Defaults to [Sys.time] (CPU seconds) so the library carries
    no [unix] dependency; [Nue_pipeline.Experiment] installs
    [Unix.gettimeofday] when linked. *)

(** {1 Counters} *)

val counter : string -> counter
(** Register (or look up) the counter with this name. Shard merges sum
    its per-domain values. *)

val incr : counter -> unit
(** Add 1 when enabled; a single flag test when disabled. Never
    allocates. *)

val add : counter -> int -> unit
(** Add [n] when enabled. Never allocates. *)

val peek : counter -> int
(** Current value (regardless of the enabled flag). *)

(** {1 Timers} *)

val timer : string -> timer
(** Register (or look up) the timer with this name. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk; when enabled, add its wall time to the timer and
    bump its activation count. Exceptions propagate (and the elapsed
    time is still recorded). *)

(** {1 Snapshots} *)

type timer_total = { seconds : float; activations : int }

type snapshot = {
  counters : (string * int) list;   (** sorted by name *)
  timers : (string * timer_total) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** Current values of every registered counter and timer, sorted by
    name — the order is a function of the names only, never of
    registration or mutation order. *)

val reset : unit -> unit
(** Zero every counter and timer cell of the calling domain's shard
    (registrations are kept). *)

(** {1 Shard transfer}

    The merge half of the per-domain sharding: a worker domain calls
    {!drain_shard} after its tasks finish, hands the result to the
    spawning domain, and the spawner calls {!absorb_shard}. Counters
    add, and timers add both seconds and activations. *)

type shard
(** A drained, immutable copy of one domain's cells. *)

val drain_shard : unit -> shard
(** Snapshot the calling domain's cells and zero them. *)

val absorb_shard : shard -> unit
(** Fold a drained shard into the calling domain's cells. *)

val find : snapshot -> string -> int
(** Counter value in a snapshot; 0 when absent. *)

val find_timer : snapshot -> string -> timer_total
(** Timer totals in a snapshot; zeros when absent. *)
