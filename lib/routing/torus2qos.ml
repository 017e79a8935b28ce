module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault

type ctx = {
  net : Network.t;
  dims : int array;
  coord : int -> int array; (* node -> torus coordinate (3 entries) *)
  switch_at : int array array array -> int array -> int;
}

let make_ctx ~(torus : Topology.torus) ~(remap : Fault.remap) =
  let dx, dy, dz = torus.dims in
  let coord n =
    let x, y, z = torus.coord_of_switch.(remap.to_old.(n)) in
    [| x; y; z |]
  in
  let switch_at grid c =
    let old = grid.(c.(0)).(c.(1)).(c.(2)) in
    remap.of_old.(old)
  in
  { net = remap.net; dims = [| dx; dy; dz |]; coord; switch_at }

(* Next ring position from [pos] toward [target] in dimension [d] for a
   ring identified by the fixed coordinates of [base]. Returns the next
   alive neighbor position along the shortest intact ring path, or None
   if the target is unreachable inside the ring. *)
let ring_next ctx grid ~base ~d ~pos ~target =
  let size = ctx.dims.(d) in
  let node_at p =
    let c = Array.copy base in
    c.(d) <- p;
    ctx.switch_at grid c
  in
  let alive p = node_at p >= 0 in
  let linked p q =
    let a = node_at p and b = node_at q in
    a >= 0 && b >= 0 && Network.find_channel ctx.net a b <> None
  in
  (* BFS from target around the ring (at most [size] positions). *)
  let dist = Array.make size max_int in
  let queue = Queue.create () in
  if not (alive target) then None
  else begin
    dist.(target) <- 0;
    Queue.add target queue;
    while not (Queue.is_empty queue) do
      let p = Queue.take queue in
      let neighbors = [ (p + 1) mod size; (p + size - 1) mod size ] in
      List.iter
        (fun q ->
           if q <> p && dist.(q) = max_int && linked q p then begin
             dist.(q) <- dist.(p) + 1;
             Queue.add q queue
           end)
        neighbors
    done;
    if dist.(pos) = max_int then None
    else begin
      let fwd = (pos + 1) mod size and bwd = (pos + size - 1) mod size in
      let better p =
        p <> pos && linked pos p && dist.(p) = dist.(pos) - 1
      in
      if better fwd then Some fwd
      else if better bwd then Some bwd
      else None
    end
  end

(* All parallel channels u -> v; redundant torus links are spread over
   destinations round-robin. *)
let channels_between net u v =
  let acc = ref [] in
  let adj = Network.out_channels net u in
  for i = Array.length adj - 1 downto 0 do
    if Network.dst net adj.(i) = v then acc := adj.(i) :: !acc
  done;
  !acc

let pick_parallel net u v ~salt =
  match channels_between net u v with
  | [] -> None
  | cs -> Some (List.nth cs (salt mod List.length cs))

(* Dimension orders tried per (node, dest): canonical DOR first, then the
   remaining permutations; a path that needs a non-canonical order is
   flagged and isolated on extra VLs. *)
let orders =
  [ [| 0; 1; 2 |]; [| 1; 0; 2 |]; [| 0; 2; 1 |]; [| 2; 0; 1 |];
    [| 1; 2; 0 |]; [| 2; 1; 0 |] ]

let next_at ctx grid ~node ~dest_switch_coord ~salt =
  let uc = ctx.coord node in
  let rec try_orders = function
    | [] -> None
    | ord :: rest ->
      (* First unfinished dimension in this order whose ring can make
         progress. *)
      let rec dims i =
        if i >= 3 then None
        else begin
          let d = ord.(i) in
          if uc.(d) = dest_switch_coord.(d) then dims (i + 1)
          else
            match
              ring_next ctx grid ~base:uc ~d ~pos:uc.(d)
                ~target:dest_switch_coord.(d)
            with
            | Some p ->
              let c = Array.copy uc in
              c.(d) <- p;
              let m = ctx.switch_at grid c in
              pick_parallel ctx.net node m ~salt
            | None -> None
        end
      in
      (match dims 0 with
       | Some c -> Some (c, ord == List.hd orders)
       | None -> try_orders rest)
  in
  try_orders orders

let route_structured ~torus ~remap ?dests ?sources () =
  let ctx = make_ctx ~torus ~remap in
  let net = ctx.net in
  let grid = torus.switch_of_coord in
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  ignore (sources : int array option);
  let nn = Network.num_nodes net in
  let failure = ref None in
  let dest_reordered = Array.map (fun _ -> false) dests in
  let next_channel =
    Array.mapi
      (fun pos dest ->
         let dw =
           if Network.is_switch net dest then dest
           else Network.terminal_attachment net dest
         in
         let wc = ctx.coord dw in
         let nexts = Array.make nn (-1) in
         for node = 0 to nn - 1 do
           if node <> dest && !failure = None then
             if Network.is_terminal net node then
               nexts.(node) <- (Network.out_channels net node).(0)
             else if node = dw then begin
               if Network.is_terminal net dest then
                 match Network.find_channel net dw dest with
                 | Some c -> nexts.(node) <- c
                 | None ->
                   failure :=
                     Some
                       (Engine_error.Unroutable
                          "torus2qos: destination lost its link")
             end
             else begin
               match next_at ctx grid ~node ~dest_switch_coord:wc ~salt:dest with
               | Some (c, canonical) ->
                 nexts.(node) <- c;
                 if not canonical then dest_reordered.(pos) <- true
               | None ->
                 failure :=
                   Some
                     (Engine_error.Unroutable
                        (Printf.sprintf
                           "torus2qos: no DOR progress from switch %d \
                            (two failures in one ring?)"
                           node))
             end
         done;
         nexts)
      dests
  in
  match !failure with
  | Some err -> Error err
  | None ->
    (* Paths whose canonical dimension order was blocked run on the two
       extra virtual lanes. Unlike the dateline-protected canonical
       class, arbitrary dimension orders carry no structural
       deadlock-freedom guarantee, so the dependency subgraph of the
       reordered class is checked explicitly; a cycle means the fault
       pattern exceeds what Torus-2QoS can handle (the paper's "second
       failure in the same torus ring" situation). *)
    (* Per-hop VL: 2 * reordered + crossed-dateline-in-current-dim.
       "Reordered" is a per-path property: the path's sequence of
       traveled dimensions violates the canonical x < y < z order. *)
    let dim_of_channel c =
      let a = ctx.coord (Network.src net c) and b = ctx.coord (Network.dst net c) in
      let rec go d = if d >= 3 then None else if a.(d) <> b.(d) then Some d else go (d + 1) in
      if
        Network.is_terminal net (Network.src net c)
        || Network.is_terminal net (Network.dst net c)
      then None
      else go 0
    in
    let is_wrap c d =
      let a = ctx.coord (Network.src net c) and b = ctx.coord (Network.dst net c) in
      let diff = abs (a.(d) - b.(d)) in
      diff = ctx.dims.(d) - 1 && ctx.dims.(d) > 2
    in
    let dest_pos = Array.make nn (-1) in
    Array.iteri (fun i d -> dest_pos.(d) <- i) dests;
    let vl ~src ~dest ~hop ~channel =
      ignore channel;
      let pos = dest_pos.(dest) in
      let nexts = next_channel.(pos) in
      (* Walk the path once, classifying each hop. *)
      let rec walk node h last_dim crossed reordered =
        let c = nexts.(node) in
        if c < 0 then (0, reordered)
        else begin
          let d = dim_of_channel c in
          let crossed =
            match d with
            | Some dd ->
              let crossed = if Some dd <> last_dim then false else crossed in
              crossed || is_wrap c dd
            | None -> false
          in
          let reordered =
            reordered
            ||
            match (last_dim, d) with
            | Some a, Some b -> b < a
            | _ -> false
          in
          if h = hop then ((if crossed then 1 else 0), reordered)
          else
            walk (Network.dst net c) (h + 1)
              (match d with Some _ -> d | None -> last_dim)
              crossed reordered
        end
      in
      (* Determine "reordered" over the full path, dateline up to [hop]. *)
      let dateline, _ = walk src 0 None false false in
      let rec full node h last_dim reordered =
        let c = nexts.(node) in
        if c < 0 || h > nn then reordered
        else begin
          let d = dim_of_channel c in
          let reordered =
            reordered
            ||
            match (last_dim, d) with
            | Some a, Some b -> b < a
            | _ -> false
          in
          full (Network.dst net c) (h + 1)
            (match d with Some _ -> d | None -> last_dim)
            reordered
        end
      in
      let reordered = full src 0 None false in
      (2 * (if reordered then 1 else 0)) + dateline
    in
    let any_reordered = Array.exists Fun.id dest_reordered in
    let table =
      Table.make ~net ~algorithm:"torus2qos" ~dests ~next_channel
        ~vl:(Table.Per_hop vl) ~num_vls:(if any_reordered then 4 else 2) ()
    in
    if not any_reordered then Ok table
    else begin
      (* Check the reordered class: collect the dependencies of every
         path touching a flagged destination and reject on a cycle.
         Only flagged destinations can carry reordered paths, so this
         stays cheap under realistic fault counts. *)
      let nc = Network.num_channels net in
      let g = Nue_cdg.Digraph.create (4 * nc) in
      let sources = Network.terminals net in
      let broken = ref false in
      Array.iteri
        (fun pos dest ->
           if dest_reordered.(pos) && not !broken then
             Array.iter
               (fun src ->
                  if src <> dest && not !broken then
                    match Table.path_with_vls table ~src ~dest with
                    | None -> broken := true (* defensive: broken path *)
                    | Some hops ->
                      let rec deps = function
                        | (c1, v1) :: ((c2, v2) :: _ as rest) ->
                          if v1 >= 2 || v2 >= 2 then
                            Nue_cdg.Digraph.add_edge g
                              ((v1 * nc) + c1) ((v2 * nc) + c2);
                          deps rest
                        | _ -> ()
                      in
                      deps hops)
               sources)
        dests;
      if !broken || not (Nue_cdg.Digraph.is_acyclic g) then
        Error
          (Engine_error.Unroutable
             "torus2qos: fault pattern requires dimension reordering whose \
              dependencies close a cycle (beyond Torus-2QoS's envelope)")
      else Ok table
    end
