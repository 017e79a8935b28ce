(** Complete channel dependency graph with routing state
    (paper Definition 6 and the edge states of Section 4.6.1).

    Vertices are the channels of the network; there is an edge
    (c_p, c_q) whenever c_q continues where c_p ends without returning
    to c_p's source node. Only routing state is stored: the edges are
    read through the network's adjacency and named by their two
    channels. Each channel has a row of edge states with a slot per
    out-channel of its head node, so an edge's state is found in O(1);
    the slots of 180-degree turns are dead and never written. Each edge
    carries the state of the incrementally built induced CDG, one byte
    per slot, read as the paper's omega of an edge:

    - -1: {e blocked} — using it would close a cycle;
    - 0: {e unused};
    - 1: {e used}.

    The rest of the state is a topological order of the channels under
    which every used edge goes forward (Pearce & Kelly, JEA 2006, see
    {!order}). On the 24-ary 3-tree of the [fattree-route] benchmark
    (56,448 channels, 2,019,456 slots) a layer's routing state is 2.0 MB
    of edge states and 0.45 MB of order; a word per slot took 18.0 MB.

    [try_use_edge] implements Algorithm 3. Conditions (a) and (b) are
    the memoized blocked and used states. Every other edge is decided
    from the order: an edge that already goes forward cannot close a
    cycle, and otherwise a forward discovery bounded by the order
    decides. This subsumes the paper's condition (c) (an edge between
    two distinct acyclic subgraphs): no used path joins two such
    subgraphs, so the order admits the edge without needing the
    subgraph ids. Admissions against the order reassign it locally.
    All mutations keep the used subgraph acyclic — this is the
    invariant Nue's deadlock-freedom proof (Lemma 2) rests on. LASH
    asks each of its layers the same question, one complete CDG per
    layer, and takes a rejected path back out with {!release}. *)

type t

val create : Nue_netgraph.Network.t -> t
(** The complete CDG of a network; everything starts unused. Allocates
    a byte per edge slot and O(channels) words besides. *)

val clone : t -> t
(** A replica for speculative routing on another domain: shares the
    network and copies the mutable routing state. It gets its own
    discovery lists, visit stamps and undo trail, so the replica and the
    original can be searched concurrently. The clone's journal starts
    unset and no checkpoint is open on it. *)

val copy_state_into : src:t -> dst:t -> unit
(** Overwrite [dst]'s routing state (edge states, topological order,
    search count) with [src]'s: two blits that refresh a replica without
    re-allocating. [dst] keeps its own visit stamps.
    @raise Invalid_argument if [dst] is not a complete CDG of the same
    network (physically equal, with states of the same sizes), or if a
    checkpoint is open on [dst]. *)

val network : t -> Nue_netgraph.Network.t

val num_channels : t -> int

val num_edges : t -> int
(** |Ē|: number of channel-dependency edges (dead slots not counted). *)

(** {1 Structure} *)

val is_edge : t -> from:int -> to_:int -> bool
(** Whether [from -> to_] is an edge of Definition 6: [to_] leaves the
    node [from] enters and does not return to [from]'s source node. O(1). *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** [iter_succ t c f] applies [f] to the successors of [c] in the order
    of [Network.out_channels] of [c]'s head node. *)

val iter_pred : t -> int -> (int -> unit) -> unit
(** [iter_pred t c f] applies [f] to the predecessors of [c] in the
    order of [Network.in_channels] of [c]'s tail node. *)

(** {1 State}

    Every operation on an edge takes its two channels and raises
    [Invalid_argument], leaving the state untouched, if they are not an
    edge ({!is_edge}). *)

val edge_omega : t -> from:int -> to_:int -> int
(** The edge's state: -1 blocked, 0 unused, 1 used. *)

val try_use_edge : t -> from:int -> to_:int -> bool
(** Algorithm 3 on edge [from -> to_]. Returns [true] and marks the edge
    used if this keeps the used subgraph acyclic; returns [false] and
    marks the edge blocked otherwise.
    Blocked edges stay blocked: without {!release} the used subgraph
    only grows, so a once-detected cycle never disappears. *)

(** Which of Section 4.6.1's conditions decided a [try_use_edge] call —
    the provenance layer records this per rejected (and accepted)
    alternative so [nue_route explain] can say {e why} an edge was
    blocked. *)
type verdict =
  | Blocked_memo    (** (a): memoized blocked — a past search proved the
                        edge closes a cycle *)
  | Used_memo       (** (b): already used, hence already known acyclic *)
  | Search_acyclic  (** (d): no used path back (the order alone, or its
                        discovery, showed it); this covers the paper's
                        (c) too *)
  | Search_cycle    (** (d): the discovery found a used path back —
                        blocked *)

val verdict_ok : verdict -> bool
(** Whether the verdict admits the edge ([try_use_edge]'s boolean). *)

val verdict_condition : verdict -> char
(** The Section 4.6.1 condition label: ['a'], ['b'] or ['d']. *)

val verdict_to_string : verdict -> string

val try_use_edge_v : t -> from:int -> to_:int -> verdict
(** [try_use_edge] returning the deciding condition instead of a bare
    boolean; identical state mutations and counter increments. *)

val release : t -> from:int -> to_:int -> unit
(** Set the edge back to unused, leaving the order as it is: an order
    stays valid when edges are removed. Like every state write it is
    trailed while a checkpoint is open.

    This is LASH's undo of a path that a layer rejects: the layer
    admits a path's dependencies all or none. The caller releases the
    edges it admitted ({!Search_acyclic}; a {!Used_memo} edge belongs to
    an earlier path) and also every verdict taken since then that may
    rest on them: for LASH, the rejected edge itself, so no blocked slot
    survives. Nue never releases. Its blocked edges, and the soundness
    of {!replay}, rest on the used subgraph only growing. *)

(** {1 Speculation: checkpoints and journals}

    Parallel Nue routes each destination of a round speculatively:
    against the round's snapshot of the CDG, recording the
    state-changing operations — edge admissions and edge blocks — into
    a journal. Then it {!replay}s the journals onto
    the authoritative graph one destination at a time, in round order.

    A speculation runs between {!checkpoint} and {!rollback}, so it
    costs only what its search touches. While a checkpoint is open,
    every state write (edge states and order positions) first saves the
    old value on an undo trail. {!rollback} restores the writes newest
    first, then the search count. Visit
    stamps are not restored; a monotone clock keeps them valid. With
    one domain the speculation runs on the authoritative graph itself;
    with several, each domain speculates on its own replica (a
    {!clone} refreshed with {!copy_state_into} once per round) while
    the authoritative graph is only read.

    Admissions re-run Algorithm 3 on the real graph, so a speculation
    invalidated by an earlier commit is detected (replay returns
    [false]) and the caller re-routes that destination sequentially.
    Blocks are always sound to replay because a used subgraph only
    grows, so a cycle found against the snapshot persists in the real
    graph. The commit order — not the domain schedule — therefore
    decides the final CDG state, which is what keeps seeded runs
    byte-identical at any job count. *)

val checkpoint : t -> unit
(** Start recording writes on the undo trail.
    @raise Invalid_argument if a checkpoint is already open. *)

val rollback : t -> unit
(** Undo every state change since the matching {!checkpoint}: edge
    states, topological order and search count are exactly as they
    were, and the checkpoint is closed.
    @raise Invalid_argument if no checkpoint is open. *)

type journal

val journal_create : unit -> journal

val journal_clear : journal -> unit
(** Forget the recorded ops (capacity is kept). *)

val set_journal : t -> journal option -> unit
(** Attach (or detach) the journal that [try_use_edge] records its
    state changes into. Recording costs one branch per
    state-changing call when unset. *)

val replay : t -> journal -> bool
(** Apply a journal recorded against a snapshot of this graph.
    Returns [false] if an admission no longer holds (or a blocked edge
    is found used); the prefix already applied stays applied —
    conservative but sound, see [try_use_edge]. Do not attach a journal
    to the graph being replayed into. *)

(** {1 Inspection (tests, metrics)} *)

val used_subgraph_acyclic : t -> bool
(** Global recheck that the used edges form an acyclic graph: an offline
    depth-first search ({!Digraph.is_acyclic}); O(|C|+|Ē|). Intended for
    tests — the incremental invariant makes it always true. *)

val count_states : t -> used:int ref -> blocked:int ref -> unused:int ref -> unit
(** Tally edge states. *)

val order : t -> int -> int
(** Position of a channel in the maintained topological order: a
    permutation of [0, num_channels) under which every used edge goes
    forward. It lives in the routing state, so {!rollback} restores it
    and {!copy_state_into}/{!clone} carry it. *)

val reorders_by_window : moved:int -> window:int -> bool
(** The size rule of an admission against the order: whether the
    reorder that moves [moved] channels within [window] consecutive
    positions of the order walks that window (more than 16 channels, at
    most 8 positions each) rather than sorting the channels. Both give
    the same order; the rule only picks the cheaper way. *)

val cycle_searches : t -> int
(** Number of queries the edge states could not answer so far: every
    [try_use_edge] on an unused edge, whether the order settled it or a
    discovery ran — instruments how effective the memoization of
    conditions (a) and (b) is. *)

val to_dot :
  ?highlight_path:int list ->
  ?escape:bool array ->
  t ->
  string
(** Graphviz rendering of the complete CDG with its current state:
    channels as boxes labelled with their position in the order (filled
    once a used edge touches them, double-bordered when flagged in
    [escape] — pass the escape tree's channel membership), dependency
    edges gray/dotted while unused, blue while used, red/dashed once
    blocked. [highlight_path] overlays one pair's
    channel sequence (and the dependency edges between consecutive
    hops) in orange. *)
