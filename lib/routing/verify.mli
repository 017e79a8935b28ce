(** Validity checks for routing tables (Definition 3 + Theorem 1).

    A routing is valid iff it is destination-based (structural for
    [Table.t]), cycle-free, connected, and deadlock-free. Deadlock
    freedom is checked on the virtual channel dependency graph: vertices
    are (channel, virtual lane) pairs and an edge connects the resources
    held/requested by consecutive hops of some path. By Dally & Seitz
    this graph is acyclic iff the routing is deadlock-free.

    Each destination's tree is walked once, settling every node its
    sources reach as reaching, dead-ending or looping. A hop whose
    channel does not leave its node is a dead end: the pair is
    unreachable, and no dependency is read past that hop. O(nodes) per
    destination (O(hops) per pair with per-pair or per-hop lanes). The
    engines' balancing ({!iter_loads}) and the table statistics
    ({!stats}) read the same walk, and count only the pairs that reach. *)

type report = {
  connected : bool;       (** every source reaches every destination *)
  cycle_free : bool;      (** no forwarding loop for any pair *)
  deadlock_free : bool;   (** acyclic virtual channel dependency graph *)
  unreachable_pairs : int;
  dependency_cycle : (int * int) list option;
      (** witness: (channel, vl) cycle if one exists *)
}

val check : ?sources:int array -> Table.t -> report
(** Full validation. [sources] defaults to the network's terminals;
    destinations are the table's routed destinations. Allocates
    O(nodes + channels × VLs) words plus the induced VCDG's edges,
    however many pairs the table routes. *)

type stats = {
  loads : int array;  (** per channel: reaching paths that cross it *)
  pairs : int;        (** reaching pairs, source <> destination *)
  unreachable : int;  (** pairs that dead-end or loop *)
  hops : int;         (** total hops of the reaching pairs *)
  max_hops : int;
}

val stats : ?sources:int array -> Table.t -> stats
(** {!check}'s walk, counted: O(nodes) per destination. *)

val measure : Table.t -> report * stats
(** {!check} and {!stats} from one walk per destination, from the
    terminals. *)

val deadlock_free : ?sources:int array -> Table.t -> bool

val connected : ?sources:int array -> Table.t -> bool

val induced_vcdg : ?sources:int array -> Table.t -> Nue_cdg.Digraph.t
(** The induced virtual channel dependency graph; vertex ids are
    [vl * num_channels + channel]. With one lane per destination tree
    ([All_zero], [Per_dest]), every hop walked from a source depends on
    the next node's hop, whether or not the pair reaches; otherwise only
    the hops of pairs that reach do. Built in one sequential pass, in
    destination order. *)

val render_cycle : Table.t -> (int * int) list -> string
(** Human-readable rendering of a [dependency_cycle] witness: one line
    per (channel, vl) unit with its endpoints, chained by "waits for"
    arrows and closed back to the first unit. *)

val cycle_to_dot : Table.t -> (int * int) list -> string
(** The same witness as a Graphviz digraph (red cycle edges, one box per
    virtual channel). *)

type walk
(** Scratch for walking the destination trees of one network: six
    words per node. *)

val walk : Nue_netgraph.Network.t -> walk

val iter_loads : walk -> Nue_netgraph.Network.t -> nexts:int array ->
  dest:int -> sources:int array -> (int -> int -> unit) -> unit
(** [iter_loads w net ~nexts ~dest ~sources f] walks the tree [nexts]
    toward [dest] from every source, then calls [f channel paths] once
    per channel the reaching paths cross. O(nodes). Raises
    [Invalid_argument] if [w] was made for another network than [net]. *)

val vls_used : ?sources:int array -> Table.t -> int
(** Number of distinct virtual lanes actually appearing on the table's
    paths (what Fig. 1b reports as the VCs a routing consumes). *)
