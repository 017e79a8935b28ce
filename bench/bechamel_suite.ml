(* Bechamel micro-benchmarks: one Test.make per paper artifact, each
   measuring the computational kernel that regenerates it (at miniature
   scale so the sampler can iterate). *)

open Bechamel

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Nue = Nue_core.Nue
module Prng = Nue_structures.Prng

let faulty_torus () =
  let torus = Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:2 () in
  (torus, Fault.remove_switches torus.Topology.net [ 5 ])

let small_random () =
  Topology.random (Prng.create 3) ~switches:24 ~inter_switch_links:96
    ~terminals_per_switch:4 ()

let tests () =
  let torus, remap = faulty_torus () in
  let tnet = remap.Fault.net in
  let rnet = small_random () in
  let dragonfly = Topology.dragonfly ~a:4 ~p:2 ~h:2 ~g:5 () in
  let minhop = Nue_routing.Minhop.route tnet in
  Test.make_grouped ~name:"experiments"
    [ Test.make ~name:"fig1a:nue-k4-faulty-torus"
        (Staged.stage (fun () -> Nue.route ~vcs:4 tnet));
      Test.make ~name:"fig1b:required-vcs"
        (Staged.stage (fun () ->
             Nue_routing.Layers.assign tnet
               ~dests:minhop.Nue_routing.Table.dests
               ~next_channel:minhop.Nue_routing.Table.next_channel
               ~sources:(Network.terminals tnet)));
      Test.make ~name:"tab1:topology-generation"
        (Staged.stage (fun () ->
             Topology.dragonfly ~a:12 ~p:6 ~h:6 ~g:15 ()));
      Test.make ~name:"fig9:nue-k1-random"
        (Staged.stage (fun () -> Nue.route ~vcs:1 rnet));
      Test.make ~name:"fig10:dfsssp-dragonfly"
        (Staged.stage (fun () -> Nue_routing.Dfsssp.route_structured dragonfly));
      Test.make ~name:"fig11:torus2qos-faulty"
        (Staged.stage (fun () ->
             Nue_routing.Torus2qos.route_structured ~torus ~remap ()));
      (* Substrate kernels: the heap under a Dijkstra-shaped load and
         under a plain insert/extract stream. *)
      Test.make ~name:"substrate:fib-heap-dijkstra"
        (Staged.stage (fun () ->
             let w = Array.make (Network.num_channels rnet) 1.0 in
             Nue_netgraph.Graph_algo.dijkstra_to_dest rnet ~weights:w
               ~dest:(Network.terminals rnet).(0)));
      Test.make ~name:"substrate:fib-heap-sort"
        (Staged.stage (fun () ->
             let h = Nue_structures.Fib_heap.create () in
             for i = 0 to 999 do
               Nue_structures.Fib_heap.insert h
                 ~key:(float_of_int ((i * 7919) mod 997)) i
             done;
             let rec drain () =
               match Nue_structures.Fib_heap.extract_min h with
               | None -> ()
               | Some _ -> drain ()
             in
             drain ())) ]

let run () =
  Common.section "Bechamel kernels (one per table/figure)";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name res acc -> (name, res) :: acc) results [] in
  List.iter
    (fun (name, res) ->
       match Analyze.OLS.estimates res with
       | Some [ t ] -> Printf.printf "%-45s %12.3f ms/run\n" name (t /. 1e6)
       | _ -> Printf.printf "%-45s (no estimate)\n" name)
    (List.sort compare rows)
