(** Nestable, deterministic span tracer (the timeline side of the
    observability layer).

    Spans are begin/end pairs with payload key-values, stamped by a
    {e deterministic} integer clock: by default an internal tick counter
    that advances once per recorded event, optionally an external
    counter such as the simulator's cycle count ({!set_clock}). No wall
    clock is ever read, so two identical seeded runs produce
    byte-identical traces — the property the trace-export tests pin
    down.

    Like {!Obs}, capture is {e off by default}: while disabled,
    {!enter}/{!exit}/{!instant} are a single flag test with no
    allocation, and {!with_} is a plain call of its thunk.

    Spans are the scopes of the calling domain's {!Recorder}: every
    open span is a node of its scope tree, where {!Obs} counters and the
    allocation view ({!Profile}) attach too. The event buffer serializes
    to Chrome trace-event JSON ({!to_chrome_string}) loadable in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing]; the tree's tick
    totals render as a compact text flamegraph ({!flamegraph}). Both are
    byte-identical for every job count: [Nue_parallel.Pool] captures
    each task and absorbs it in task order ({!Recorder.mark}). *)

(** Payload values attached to span begin/end and instant events. *)
type arg = Recorder.arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Recorder.phase = Begin | End | Instant | Counter

type event = Recorder.event = {
  name : string;
  phase : phase;
  ts : int;  (** deterministic stamp: tick or external counter value *)
  args : (string * arg) list;
}

type handle
(** Token returned by {!enter}; required by {!exit}. The handle of the
    disabled path is inert: exiting it is a no-op. *)

val null_handle : handle

(** {1 Enabling} *)

val enabled : unit -> bool
(** Whether scopes are recorded: the span view or the allocation view
    ({!Profile.enable}) is on. [false] at startup. Call sites that build
    payloads test it first. *)

val enable : unit -> unit
(** Switch the span view on: scopes are recorded and events fill the
    calling domain's buffer. *)

val disable : unit -> unit

(** {1 Clock} *)

val set_clock : (unit -> int) -> unit
(** Install an external integer clock (e.g. the simulator's cycle
    counter). Events recorded while it is installed carry its value and
    do not advance the internal tick. *)

val use_tick_clock : unit -> unit
(** Return to the internal tick counter (the default), jumping it past
    the largest stamp already emitted so the timeline stays monotonic. *)

val now : unit -> int
(** The stamp the next event would carry (does not advance the tick). *)

(** {1 Recording} *)

val enter : ?args:(string * arg) list -> string -> handle
(** Open a span: a scope of the recorder's tree and, under the span
    view, a [Begin] event. Disabled: returns {!null_handle} without
    allocating. *)

val exit : ?args:(string * arg) list -> handle -> unit
(** Close the span opened by {!enter}. Unbalanced use (double exit, or
    exiting over still-open children) raises [Invalid_argument] when
    [Obs.debug] is set and saturates otherwise: double exits are
    dropped, open children are closed first. Either way the buffer stays
    well-nested. *)

val with_ : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] brackets [f] in a span. Exceptions propagate; the
    closing event is annotated with the exception text. Disabled: a
    plain call of [f]. *)

val instant : ?args:(string * arg) list -> string -> unit
(** A zero-duration annotation (escape fallback, backtrack, deadlock).
    Recorded under the span view only. *)

val counter : string -> (string * arg) list -> unit
(** A counter sample: Perfetto renders one time series per key.
    Recorded under the span view only. *)

(** {1 Buffer} *)

val reset : unit -> unit
(** {!Recorder.reset}: drop all events, zero the tick, restore the tick
    clock, close every scope and clear the scope tree with its counters.
    Does not change the enabled flag. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val num_events : unit -> int

val dropped : unit -> int
(** Events discarded because the buffer hit {!set_capacity}'s cap. *)

val set_capacity : int -> unit
(** Cap the event buffer (default 262144). Stack bookkeeping continues
    past the cap, so nesting stays consistent; overflow is counted in
    {!dropped}. *)

val current_depth : unit -> int
(** Number of currently open spans. *)

(** {1 Export} *)

val to_chrome_string : unit -> string
(** The whole buffer as Chrome trace-event JSON:
    [{"traceEvents": [...], "displayTimeUnit": ..., "otherData": ...}].
    Directly loadable in Perfetto / [chrome://tracing]. Timestamps are
    the deterministic integer stamps (declared as microseconds, the
    unit the format mandates). *)

val flamegraph : ?width:int -> unit -> string
(** The scope tree's inclusive tick totals and call counts, one line
    per span-name path, children indented under parents, sorted by
    total descending (deterministic). Spans past the buffer cap still
    count. *)
