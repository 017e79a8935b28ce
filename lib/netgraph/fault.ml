module Prng = Nue_structures.Prng
module Bitset = Nue_structures.Bitset

type remap = {
  net : Network.t;
  to_old : int array;
  of_old : int array;
  dead_links : Bitset.t;
}

let num_links net = Network.num_channels net / 2

(* Endpoints of duplex link [l], channel [2l]'s orientation. *)
let link net l = (Network.src net (2 * l), Network.dst net (2 * l))

let identity net =
  let n = Network.num_nodes net in
  { net; to_old = Array.init n Fun.id; of_old = Array.init n Fun.id;
    dead_links = Bitset.create (num_links net) }

(* The one connectivity predicate of a fault plan: walk the base
   adjacency from the first live node, never entering a dead node nor
   crossing a dead link (channel [c] is link [c / 2]). *)
let connected net ~dead_node ~dead_link =
  let seen = Array.copy dead_node in
  let rec walk u =
    seen.(u) <- true;
    Array.iter
      (fun c ->
         let v = Network.dst net c in
         if not (seen.(v) || Bitset.mem dead_link (c / 2)) then walk v)
      (Network.out_channels net u)
  in
  Option.iter walk (Array.find_index not dead_node);
  Array.for_all Fun.id seen

(* Build the degraded network of a plan once. [dead_link] is completed in
   place to every base link the result lacks, those lost with a node
   included. *)
let rebuild net ~dead_node ~dead_link =
  if not (connected net ~dead_node ~dead_link) then
    invalid_arg "Fault: faults disconnect the network";
  let to_old =
    Array.of_list
      (List.filter (fun i -> not dead_node.(i))
         (List.init (Network.num_nodes net) Fun.id))
  in
  let of_old = Array.make (Network.num_nodes net) (-1) in
  let b = Network.Builder.create ~name:(Network.name net ^ "+faults") () in
  Array.iteri
    (fun i o ->
       of_old.(o) <- i;
       ignore (Network.Builder.add_node b (Network.kind net o)))
    to_old;
  for l = 0 to num_links net - 1 do
    let u, v = link net l in
    if Bitset.mem dead_link l || dead_node.(u) || dead_node.(v) then
      Bitset.add dead_link l
    else Network.Builder.connect b of_old.(u) of_old.(v)
  done;
  { net = Network.Builder.build b; to_old; of_old; dead_links = dead_link }

let check_fraction fn fraction =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg (fn ^ ": fraction outside [0, 1]")

let remove_switches net switches =
  let n = Network.num_nodes net in
  let dead_node = Array.make n false in
  List.iter
    (fun s ->
       if s < 0 || s >= n || not (Network.is_switch net s) then
         invalid_arg "Fault.remove_switches: node is not a switch";
       dead_node.(s) <- true;
       Array.iter (fun t -> dead_node.(t) <- true)
         (Network.attached_terminals net s))
    switches;
  rebuild net ~dead_node ~dead_link:(Bitset.create (num_links net))

(* The dead links of [remove_links net pairs]: each pair's lowest-numbered
   live copy, the first in [out_channels u] (ascending ids). *)
let link_plan net pairs =
  let dead_link = Bitset.create (num_links net) in
  List.iter
    (fun (u, v) ->
       let live c = Network.dst net c = v && not (Bitset.mem dead_link (c / 2)) in
       match
         if u < 0 || u >= Network.num_nodes net then None
         else Array.find_opt live (Network.out_channels net u)
       with
       | Some c -> Bitset.add dead_link (c / 2)
       | None -> invalid_arg "Fault.remove_links: no such link")
    pairs;
  dead_link

let remove_links net pairs =
  rebuild net
    ~dead_node:(Array.make (Network.num_nodes net) false)
    ~dead_link:(link_plan net pairs)

let can_remove_links net pairs =
  match link_plan net pairs with
  | dead_link ->
    connected net ~dead_node:(Array.make (Network.num_nodes net) false)
      ~dead_link
  | exception Invalid_argument _ -> false

(* Base ids of the cut links whose both endpoints survived, ascending. *)
let cut_links base remap =
  List.filter
    (fun l ->
       let u, v = link base l in
       remap.of_old.(u) >= 0 && remap.of_old.(v) >= 0)
    (Bitset.to_list remap.dead_links)

let removed base remap =
  ( List.filter (fun s -> remap.of_old.(s) < 0) (Array.to_list (Network.switches base)),
    List.map
      (fun l ->
         let u, v = link base l in
         (min u v, max u v))
      (cut_links base remap) )

let base_channels ~base remap =
  if Bitset.capacity remap.dead_links <> num_links base then
    invalid_arg "Fault.base_channels: remap is not of this base network";
  let map = Array.make (Network.num_channels remap.net) 0 and j = ref 0 in
  for c = 0 to Network.num_channels base - 1 do
    if not (Bitset.mem remap.dead_links (c / 2)) then begin
      map.(!j) <- c;
      incr j
    end
  done;
  map

let random_link_repairs prng ~base remap ~fraction =
  check_fraction "Fault.random_link_repairs" fraction;
  let cut = Array.of_list (cut_links base remap) in
  let n = Array.length cut in
  let target =
    if fraction = 0.0 || n = 0 then 0
    else max 1 (int_of_float (fraction *. float_of_int n))
  in
  if target = 0 then remap
  else begin
    Prng.shuffle prng cut;
    (* The first [target] shuffled links come back; the rest stay cut.
       Rebuild from the base so channel ids keep the base ordering. *)
    let dead_link = Bitset.create (num_links base) in
    Array.iteri (fun i l -> if i >= target then Bitset.add dead_link l) cut;
    rebuild base ~dead_node:(Array.map (fun o -> o < 0) remap.of_old)
      ~dead_link
  end

let random_link_failures prng net ~fraction =
  check_fraction "Fault.random_link_failures" fraction;
  (* Switch-to-switch links in descending id order: the shuffle's input
     order fixes which links a seed fails. *)
  let m = num_links net in
  let eligible =
    Array.of_list
      (List.filter
         (fun l ->
            let u, v = link net l in
            Network.is_switch net u && Network.is_switch net v)
         (List.init m (fun i -> m - 1 - i)))
  in
  let target =
    if fraction = 0.0 then 0
    else max 1 (int_of_float (fraction *. float_of_int (Array.length eligible)))
  in
  let dead_link = Bitset.create m in
  let dead_node = Array.make (Network.num_nodes net) false in
  Prng.shuffle prng eligible;
  let killed = ref 0 in
  Array.iter
    (fun l ->
       if !killed < target then begin
         Bitset.add dead_link l;
         (* A failure that would disconnect the network is skipped. *)
         if connected net ~dead_node ~dead_link then incr killed
         else Bitset.remove dead_link l
       end)
    eligible;
  if !killed = 0 then identity net else rebuild net ~dead_node ~dead_link
