(** The per-domain observability recorder: one state behind every view
    of the layer.

    Each domain owns one recorder (reached through domain-local
    storage). It holds the ordered event buffer that
    {!Span.to_chrome_string} serializes, and a {e scope tree} keyed by
    span-name path: every {!Span.enter} descends to the child node of
    the innermost open scope with that name, every exit adds its tick
    duration and one call to the node. Each node also holds the counter
    and timer cells that {!Obs} increments while it is the innermost
    open scope (the root holds them when no scope is open) and, under
    the allocation view only, its wall seconds and [Gc] words. The views
    are reads of this one tree: {!Obs.snapshot} sums the cells,
    {!Span.flamegraph} renders the ticks, {!Profile.report} the words.

    [Nue_parallel.Pool] moves everything a task recorded with one
    {!mark}/{!cut}/{!absorb}: the task's subtree merges under the
    caller's open scope, and its events are re-stamped in task order,
    so every view reads the same for every job count.

    Instrumentation sites do not call this module; they go through
    {!Obs} and {!Span}, whose disabled path is one test of {!views}. *)

(** {1 Events} *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Begin | End | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts : int;  (** deterministic stamp: tick or external counter value *)
  args : (string * arg) list;
}

(** {1 Views}

    Which parts of the recorder are filled, as a bit set. [counters]:
    {!Obs} counters and timers. [spans]: the event buffer. [alloc]: the
    scope tree's wall seconds and [Gc] words. The scope tree itself is
    kept whenever [spans] or [alloc] is on. All views are off at
    startup. *)

val views : int Atomic.t

val counters : int

val spans : int

val alloc : int

val scopes : int
(** [spans lor alloc]: the views that open scopes. *)

val set_view : int -> bool -> unit

val viewing : int -> bool
(** Whether any of the given view bits is on. *)

(** {1 Wall clock}

    The one wall clock of the layer, read by {!Obs.time}, the
    allocation view and the pool's busy timelines. Defaults to
    [Sys.time] (CPU seconds) so the library needs no [unix];
    [Nue_pipeline.Experiment] installs [Unix.gettimeofday]. *)

val set_clock : (unit -> float) -> unit

val now : unit -> float

(** {1 The scope tree} *)

type node = {
  name : string;
  children : (string, node) Hashtbl.t;
  mutable counts : int array;  (** counter cells, by counter id *)
  mutable timer_secs : float array;  (** timer cells, by timer id *)
  mutable timer_acts : int array;
  mutable calls : int;  (** closed scopes *)
  mutable ticks : int;  (** inclusive stamp duration of the closed scopes *)
  mutable secs : float;
      (** inclusive wall seconds on the domain that ran the scope *)
  mutable self_secs : float;  (** wall seconds while innermost *)
  mutable minor_words : float;
      (** words allocated while innermost; the same for the fields below *)
  mutable major_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

val iter : (node -> unit) -> node -> unit
(** Visit a node and all its descendants. *)

(** {1 The per-domain state} *)

type reading
(** Wall clock and [Gc] counters at the last scope boundary. *)

type frame
(** One open scope. *)

type t = {
  mutable root : node;
  mutable frames : frame list;  (** open scopes, innermost first *)
  mutable depth : int;
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
  mutable tick : int;
  mutable last_ts : int;
  mutable custom_clock : (unit -> int) option;
  mutable base : reading;
}

val get : unit -> t
(** The calling domain's recorder. *)

val capacity : int Atomic.t
(** Event buffer cap (see {!Span.set_capacity}). *)

val reset : unit -> unit
(** Clear the calling domain's recorder: events, tick, external clock,
    open scopes, and the scope tree with its counters. Views are
    unchanged. *)

(** {1 Recording} *)

val record : t -> string -> phase -> (string * arg) list -> int
(** Stamp an event and, under the span view, append it to the buffer
    (past the cap it is counted as dropped). Returns the stamp. *)

val enter : t -> string -> (string * arg) list -> unit
(** Record a [Begin] and open a scope below the innermost one. *)

val exit : t -> (string * arg) list -> unit
(** Record the innermost scope's [End] and close it. No-op when no
    scope is open. *)

val count : int -> int -> unit
(** [count id n] adds [n] to counter [id] of the calling domain's
    innermost scope. *)

val time : int -> float -> unit
(** [time id s] adds one activation of [s] seconds to timer [id] of the
    calling domain's innermost scope. *)

(** {1 Task capture} *)

type mark

type slice
(** What one task recorded: its events, dropped count and scope
    subtree. *)

val mark : unit -> mark
(** Start a capture on the calling domain: until {!cut}, scopes,
    counters and allocation go to a fresh detached tree, and events to
    the buffer past the mark. *)

val cut : mark -> slice
(** Take what was recorded since the mark and rewind the recorder to
    it. Must run on the domain that made the mark. The task's wall time
    outside its scopes is dropped: wall time does not add across
    domains. *)

val absorb : slice -> unit
(** Re-record a slice's events with the calling domain's stamps, in
    order, and merge its subtree under the innermost open scope. *)
