(** Fibonacci heap: a min-heap with O(1) insert and amortized
    O(log n) extract-min, laid out in flat arrays.

    The paper's Proposition 1 bounds Algorithm 1 by
    O(|C| log |C| + |Ē|) with a Fibonacci heap. Every caller here
    inserts a fresh entry instead of decreasing a key (each channel
    enters Nue's queue at most once per destination; the plain Dijkstras
    re-insert and skip stale pops), so the heap offers only the two
    operations they use, plus {!clear} for reuse.

    Keys are floats; each element carries a non-negative int payload (a
    channel or node id in every caller). A node is an index into
    parallel arrays (key, payload, child, left and right sibling,
    degree); indices are handed out in insertion order and start again
    from 0 whenever the heap is empty, so a heap reused across searches
    keeps its arrays and allocates only when one search outgrows every
    earlier one.

    Elements with equal keys pop in an order fixed by the heap's
    linking rule; Nue's and static-cdg's tables depend on it, so that
    rule is part of the contract (pinned by the [heap:model] golden
    tests). *)

type t

val create : unit -> t
(** A fresh empty heap. *)

val insert : t -> key:float -> int -> unit
(** [insert t ~key v] adds [v] with priority [key]; amortized O(1).
    @raise Invalid_argument if [v] is negative. *)

val extract_min : t -> float array -> int
(** [extract_min t key] removes an element with the smallest key,
    writes that key into [key.(0)] and returns its payload; on an empty
    heap it returns -1 and leaves [key] alone. Amortized O(log n);
    allocates nothing. *)

val clear : t -> unit
(** Drop every element, keeping the arrays. *)
