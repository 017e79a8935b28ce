(* Test-only reference for random link failures: every candidate is
   tested by building the whole degraded network and asking it for
   connectivity, and a rejected candidate's build is thrown away. The
   library decides each candidate with one walk over the base network
   and builds once ({!Nue_netgraph.Fault.random_link_failures}); the
   property in test_netgraph.ml holds it to this. *)

module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Prng = Nue_structures.Prng

type remap = {
  net : Network.t;
  to_old : int array;
  of_old : int array;
  kept : int array;  (** degraded link id -> base link id *)
}

let identity net =
  let n = Network.num_nodes net in
  { net; to_old = Array.init n Fun.id; of_old = Array.init n Fun.id;
    kept = Array.init (Network.num_channels net / 2) Fun.id }

(* Rebuild without the [dead_link] indices of Network.duplex_pairs. *)
let rebuild net ~dead_link =
  let n = Network.num_nodes net in
  let b = Network.Builder.create ~name:(Network.name net ^ "+faults") () in
  for i = 0 to n - 1 do
    ignore (Network.Builder.add_node b (Network.kind net i))
  done;
  let kept = ref [] in
  Array.iteri
    (fun l (u, v) ->
       if not dead_link.(l) then begin
         Network.Builder.connect b u v;
         kept := l :: !kept
       end)
    (Network.duplex_pairs net);
  let net' = Network.Builder.build b in
  if not (Graph_algo.is_connected net') then
    invalid_arg "Fault: faults disconnect the network";
  { net = net'; to_old = Array.init n Fun.id; of_old = Array.init n Fun.id;
    kept = Array.of_list (List.rev !kept) }

let random_link_failures prng net ~fraction =
  let duplex = Network.duplex_pairs net in
  let eligible = ref [] in
  Array.iteri
    (fun l (u, v) ->
       if Network.is_switch net u && Network.is_switch net v then
         eligible := l :: !eligible)
    duplex;
  let eligible = Array.of_list !eligible in
  let target =
    if fraction <= 0.0 then 0
    else max 1 (int_of_float (fraction *. float_of_int (Array.length eligible)))
  in
  let dead_link = Array.make (Array.length duplex) false in
  Prng.shuffle prng eligible;
  let killed = ref 0 in
  let i = ref 0 in
  let result = ref (identity net) in
  while !killed < target && !i < Array.length eligible do
    let l = eligible.(!i) in
    incr i;
    dead_link.(l) <- true;
    match rebuild net ~dead_link with
    | r ->
      result := r;
      incr killed
    | exception Invalid_argument _ -> dead_link.(l) <- false
  done;
  !result
