(* Shared fixtures for the test suites. *)

module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Prng = Nue_structures.Prng
module Experiment = Nue_pipeline.Experiment

(* The paper's running example (Fig. 2a): a 5-node ring with a shortcut
   between n3 and n5. Node ids 0..4 stand for n1..n5; [with_terminals]
   attaches one terminal per switch (ids 5..9). *)
let ring5 ?(with_terminals = true) () =
  let b = Network.Builder.create ~name:"ring5+shortcut" () in
  let sw = Array.init 5 (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to 4 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod 5)
  done;
  (* Shortcut n3 (index 2) - n5 (index 4). *)
  Network.Builder.connect b sw.(2) sw.(4);
  if with_terminals then
    Array.iter
      (fun s ->
         let t = Network.Builder.add_terminal b in
         Network.Builder.connect b t s)
      sw;
  Network.Builder.build b

(* Plain ring of [n] switches, one terminal each. *)
let ring ?(terminals = 1) n =
  let b = Network.Builder.create ~name:(Printf.sprintf "ring%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 1 do
    Network.Builder.connect b sw.(i) sw.((i + 1) mod n)
  done;
  Array.iter
    (fun s ->
       for _ = 1 to terminals do
         let t = Network.Builder.add_terminal b in
         Network.Builder.connect b t s
       done)
    sw;
  Network.Builder.build b

(* Line (path graph) of [n] switches, one terminal each. *)
let line n =
  let b = Network.Builder.create ~name:(Printf.sprintf "line%d" n) () in
  let sw = Array.init n (fun _ -> Network.Builder.add_switch b) in
  for i = 0 to n - 2 do
    Network.Builder.connect b sw.(i) sw.(i + 1)
  done;
  Array.iter
    (fun s ->
       let t = Network.Builder.add_terminal b in
       Network.Builder.connect b t s)
    sw;
  Network.Builder.build b

let small_torus () = Topology.torus3d ~dims:(3, 3, 3) ~terminals_per_switch:2 ()

(* The 4x4x3 torus used throughout the Torus-2QoS and fault tests. *)
let torus443 ?(terminals = 2) () =
  Topology.torus3d ~dims:(4, 4, 3) ~terminals_per_switch:terminals ()

(* One switch with two attached terminals: the smallest network with a
   routable terminal pair (simulator and metrics fixtures). *)
let single_switch_pair () =
  let b = Network.Builder.create () in
  let s = Network.Builder.add_switch b in
  let t1 = Network.Builder.add_terminal b in
  let t2 = Network.Builder.add_terminal b in
  Network.Builder.connect b t1 s;
  Network.Builder.connect b t2 s;
  Network.Builder.build b

(* A built random-topology experiment, the setup the engine/pipeline
   tests kept hand-wiring. Defaults match the historical "random-12"
   fixture; [dense] is the cycle-rich 16-switch variant that needs more
   than one virtual layer. *)
let random_built ?(seed = 7) ?(switches = 12) ?(links = 30) ?(terminals = 2)
    ?(faults = Experiment.No_faults) () =
  Experiment.build
    (Experiment.setup ~faults ~seed
       (Experiment.Random { switches; links; terminals }))

let dense_random_built () = random_built ~seed:3 ~switches:16 ~links:48 ()

let random_net ?(seed = 42) ?(switches = 20) ?(links = 50) ?(terminals = 2) ()
    =
  let prng = Prng.create seed in
  Topology.random prng ~switches ~inter_switch_links:links
    ~terminals_per_switch:terminals ()

(* Random connected topology generator for property tests. *)
let arbitrary_net =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 0 100000 in
      let* switches = int_range 4 24 in
      let* extra = int_range 0 30 in
      let* terminals = int_range 1 3 in
      let links = switches - 1 + extra in
      let max_links = switches * (switches - 1) / 2 in
      let links = min links max_links in
      return (seed, switches, links, terminals))
  in
  QCheck2.Gen.map
    (fun (seed, switches, links, terminals) ->
       let prng = Prng.create seed in
       Topology.random prng ~switches ~inter_switch_links:links
         ~terminals_per_switch:terminals ~max_switch_ports:64 ())
    gen

(* Words [f] allocates on the calling domain, minor and major heap. The
   minor heap is emptied first, so the words promoted meanwhile are
   [f]'s own and subtracting them counts each word once. *)
let words_allocated f =
  Gc.minor ();
  let w0 = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. w0) /. float_of_int (Sys.word_size / 8))

let check_table_valid name table =
  let r = Nue_routing.Verify.check table in
  Alcotest.(check bool) (name ^ ": connected") true r.Nue_routing.Verify.connected;
  Alcotest.(check bool) (name ^ ": cycle-free") true r.Nue_routing.Verify.cycle_free;
  Alcotest.(check bool)
    (name ^ ": deadlock-free") true r.Nue_routing.Verify.deadlock_free

(* {1 Table fingerprints}

   Canonical MD5 of a routing table, used by the representation-
   equivalence suite (test_compact.ml) to pin seeded tables across
   graph-core refactors. Must stay in sync with tools/fingerprint.ml,
   which regenerates the recorded digests. *)
let table_fingerprint (t : Nue_routing.Table.t) =
  let module Table = Nue_routing.Table in
  let buf = Buffer.create 4096 in
  let add_int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ','
  in
  Buffer.add_string buf t.Table.algorithm;
  Buffer.add_char buf ';';
  add_int t.Table.num_vls;
  Array.iter add_int t.Table.dests;
  Buffer.add_char buf ';';
  Array.iter
    (fun row ->
       Array.iter add_int row;
       Buffer.add_char buf '|')
    t.Table.next_channel;
  Buffer.add_char buf ';';
  (match t.Table.vl with
   | Table.All_zero -> Buffer.add_char buf 'Z'
   | Table.Per_dest a ->
     Buffer.add_char buf 'D';
     Array.iter add_int a
   | Table.Per_pair a ->
     Buffer.add_char buf 'P';
     Array.iter
       (fun row ->
          Array.iter add_int row;
          Buffer.add_char buf '|')
       a
   | Table.Per_hop _ ->
     (* Closures cannot be serialized directly; walk every pair's path
        and record the per-hop (channel, vl) sequence instead. *)
     Buffer.add_char buf 'H';
     let nn = Network.num_nodes t.Table.net in
     Array.iter
       (fun dest ->
          for src = 0 to nn - 1 do
            if src <> dest then
              match Table.path_with_vls t ~src ~dest with
              | None -> ()
              | Some hops ->
                List.iter
                  (fun (c, v) ->
                     add_int c;
                     add_int v)
                  hops;
                Buffer.add_char buf '|'
          done)
       t.Table.dests);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* MD5 of the statistics [Experiment.measure] reads from a table, as
   [Experiment.metrics_to_json] renders them. Must stay in sync with
   tools/fingerprint.ml. *)
let metrics_fingerprint table =
  Experiment.metrics_to_json (Experiment.measure table)
  |> Nue_pipeline.Json.to_string |> Digest.string |> Digest.to_hex

(* [Experiment.observe] with one view, returning what that view read.
   Span events stay in the recorder's buffer. *)
let counted f =
  let r, o = Experiment.observe [ Experiment.Counters ] f in
  (r, o.Experiment.counters)

let spanned f = fst (Experiment.observe [ Experiment.Spans ] f)

let profiled f =
  let r, o = Experiment.observe [ Experiment.Alloc ] f in
  (r, o.Experiment.profile)

let with_provenance f =
  let r, o = Experiment.observe [ Experiment.Provenance ] f in
  (r, o.Experiment.provenance)
