(** Structured failure modes of the routing engines.

    The paper's comparative claims (Figs. 1, 10, 11) hinge on {e why} a
    routing fails, not just that it does: DFSSSP/LASH blow the virtual
    channel budget, Torus-2QoS has no analytical solution for some fault
    patterns, topology-aware routings reject foreign topologies. These
    variants carry exactly that information; every engine behind
    {!Engine} reports failures through them instead of ad-hoc strings. *)

type t =
  | Vc_budget_exceeded of { needed : int; available : int }
      (** The decoupled deadlock-removal needs more virtual layers than
          the hardware offers (DFSSSP/LASH, Figs. 1b and 11). *)
  | Topology_mismatch of string
      (** A topology-aware engine was pointed at a network it does not
          understand (Torus-2QoS off a torus, fat-tree routing off a
          k-ary n-tree), or required metadata is missing. *)
  | Unroutable of string
      (** The fault pattern exceeds the engine's envelope: e.g. two
          failures in one torus ring for Torus-2QoS (Fig. 1). *)
  | Disconnected of string
      (** The network (or a required pair) is not connected. *)
  | Invalid_spec of string
      (** The {!Engine.spec} itself is unusable (e.g. [vcs < 1]). *)
  | Unknown_engine of string
      (** No engine of that name is registered. *)
  | Internal of string
      (** A trapped exception — always a bug worth reporting. *)

val to_string : t -> string
(** Human-readable one-liner (what the CLI prints on a routing
    failure). *)

val kind : t -> string
(** Stable machine-readable tag ("vc_budget_exceeded", ...) for JSON. *)
