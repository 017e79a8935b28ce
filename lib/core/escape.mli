(** Escape paths (Section 4.2, Definition 7).

    A spanning tree rooted at the layer's central node defines, for every
    destination of the layer, a fallback routing whose channel
    dependencies are marked [used] in the complete CDG before the real
    path search starts. Because they come from a tree, these initial
    dependencies cannot form a cycle, and they guarantee that a valid
    (if non-minimal) path always exists — Nue falls back to them when
    the incremental search reaches an unsolvable impasse (Lemma 3). *)

type t

val prepare :
  Nue_cdg.Complete_cdg.t ->
  root:int ->
  dests:int array ->
  t
(** Build the BFS spanning tree rooted at [root] on the CDG's network and
    mark every escape-path channel and dependency toward the given
    destinations as used: one walk of the tree makes the CDG calls of
    expanding every node's hop toward each destination in turn, in that
    order, in O(channels + nodes log nodes) time and O(nodes) words.
    @raise Invalid_argument if the network is disconnected. *)

val prepare_into :
  Nue_cdg.Complete_cdg.t ->
  root:int ->
  dests:int array ->
  t option
(** Like [prepare], but for a CDG whose orientation is already partly
    decided (e.g. replayed from an existing routing, as the incremental
    rerouter does): the tree dependencies are admitted through
    Algorithm 3 and may be refused. [None] when one is — discard the
    CDG then, as the failed attempt leaves edges used and one blocked. *)

val tree : t -> Nue_netgraph.Graph_algo.tree

val initial_dependencies : t -> int
(** Number of channel-dependency edges the escape paths put into the
    used state (the quantity Fig. 5 counts). *)

val next_toward : t -> dest:int -> int array
(** Escape-path next channel per node toward [dest] (the routing R^s
    restricted to one destination), built per call in O(nodes) for a
    search that falls back; safe to call from several domains. *)
