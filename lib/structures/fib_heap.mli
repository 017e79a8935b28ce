(** Fibonacci heap: a min-heap with O(1) insert and amortized
    O(log n) extract-min.

    The paper's Proposition 1 bounds Algorithm 1 by
    O(|C| log |C| + |Ē|) with a Fibonacci heap. Every caller here
    inserts a fresh entry instead of decreasing a key (each channel
    enters Nue's queue at most once per destination; the plain Dijkstras
    re-insert and skip stale pops), so the heap offers only the two
    operations they use.

    Keys are floats; each element carries a caller payload. Elements
    with equal keys pop in an order fixed by the heap's linking rule;
    Nue's and static-cdg's tables depend on it, so that rule is part of
    the contract (pinned by the [heap:model] golden test). *)

type 'a t
(** A heap holding payloads of type ['a]. *)

val create : unit -> 'a t
(** A fresh empty heap. *)

val insert : 'a t -> key:float -> 'a -> unit
(** [insert t ~key v] adds [v] with priority [key]; O(1). *)

val extract_min : 'a t -> ('a * float) option
(** Remove and return the payload and key with the smallest key;
    amortized O(log n). Returns [None] on an empty heap. *)
