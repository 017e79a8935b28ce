(** Dependency-free counter/timer registry (the counter view of the
    observability layer).

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
    The {e values} are cells of the calling domain's {!Recorder}: an
    increment lands in the innermost open span scope's node (the root's
    when none is open), and {!snapshot} sums the cells over the scope
    tree. Concurrent increments from a domain pool never race, and
    [Nue_parallel.Pool] merges what each task counted into the caller's
    tree in task order, so merged totals are a function of the work
    performed, not of the schedule. *)

type counter
(** A named monotonic counter. Registration is idempotent: two
    [counter "x"] calls return the same cell. *)

type timer
(** A named accumulating timer: total seconds plus activation count. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** The counter view; [false] at startup. *)

val enable : unit -> unit

val disable : unit -> unit

val debug : unit -> bool
(** Debug mode; [false] at startup. While set, unbalanced span exits
    ({!Span.exit}) raise [Invalid_argument]; otherwise they saturate
    (the unmatched call is dropped and the buffer stays well-nested). *)

val set_debug : bool -> unit

val set_clock : (unit -> float) -> unit
(** Install the layer's one wall clock ({!Recorder.set_clock}), read by
    {!time}, the allocation view and the pool's busy timelines. *)

val now : unit -> float
(** The wall clock's current value. *)

(** {1 Counters} *)

val counter : string -> counter
(** Register (or look up) the counter with this name. *)

val incr : counter -> unit
(** Add 1 when enabled; a single flag test when disabled. Never
    allocates. *)

val add : counter -> int -> unit
(** Add [n] when enabled. Never allocates. *)

val peek : counter -> int
(** Current total over the calling domain's scope tree (regardless of
    the enabled flag). *)

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
(** Every registered counter and timer, summed over the calling
    domain's scope tree and sorted by name — the order is a function of
    the names only, never of registration or mutation order. *)

val reset : unit -> unit
(** {!Recorder.reset}: clear the calling domain's recorder — counters,
    timers, span events and the scope tree (registrations are kept). *)

val find : snapshot -> string -> int
(** Counter value in a snapshot; 0 when absent. *)

val find_timer : snapshot -> string -> timer_total
(** Timer totals in a snapshot; zeros when absent. *)
