(** Minimal hand-rolled JSON emitter (no external dependencies).

    Only what the experiment pipeline and the [--format json] CLI output
    need: construction and serialization. Strings are escaped per RFC
    8259; non-finite floats serialize as [null] (JSON has no NaN). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for human consumption. *)

val escape : string -> string
(** The quoted, escaped form of a string literal. *)

exception Parse_error of string

val of_string : string -> t
(** Recursive-descent parser for the subset this library emits (RFC 8259
    minus astral \u escapes, which are kept verbatim). Round-trips
    [to_string]/[to_string_pretty] output. bench/perf reads
    BENCHMARK.json, its child processes' result lines and its span
    files with it.
    @raise Parse_error on malformed input, with a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k]; [None] on missing
    keys and non-objects. *)

val to_float_opt : t -> float option
(** Numeric value of an [Int] or [Float] node. *)
