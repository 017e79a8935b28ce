module Network = Nue_netgraph.Network
module Topology = Nue_netgraph.Topology
module Fault = Nue_netgraph.Fault
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span

let c_routes_ok = Obs.counter "engine.routes_ok"
let c_routes_err = Obs.counter "engine.routes_error"

type spec = {
  net : Network.t;
  vcs : int;
  seed : int;
  dests : int array option;
  sources : int array option;
  torus : Topology.torus option;
  remap : Fault.remap option;
  tree : (int * int) option;
}

let spec ?(vcs = 8) ?(seed = 1) ?dests ?sources ?torus ?remap ?tree net =
  { net; vcs; seed; dests; sources; torus; remap; tree }

type capabilities = {
  needs_torus_coords : bool;
  needs_tree_meta : bool;
  respects_vc_budget : bool;
  deadlock_free : bool;
  may_disconnect : bool;
}

let caps ?(needs_torus_coords = false) ?(needs_tree_meta = false)
    ?(respects_vc_budget = false) ?(deadlock_free = false)
    ?(may_disconnect = false) () =
  { needs_torus_coords; needs_tree_meta; respects_vc_budget; deadlock_free;
    may_disconnect }

module type ENGINE = sig
  val name : string
  val capabilities : capabilities
  val route : spec -> (Table.t, Engine_error.t) result
end

(* {1 Registry} *)

let registry : (module ENGINE) list ref = ref []

(* Wrap an engine so no caller can observe an exception or an
   un-validated spec: the matrix guarantee (structured errors only).
   The wrapper is also where every engine's wall time is accumulated
   (timer ["engine.<name>"]), so per-engine timings come for free with
   registration. *)
let safety_wrap (module E : ENGINE) : (module ENGINE) =
  (module struct
    let name = E.name
    let capabilities = E.capabilities
    let timer = Obs.timer ("engine." ^ E.name)
    let span_name = "engine." ^ E.name

    let route s =
      if s.vcs < 1 then
        Error (Engine_error.Invalid_spec "vcs must be >= 1")
      else begin
        let result =
          Obs.time timer (fun () ->
              Span.with_ span_name
                ~args:
                  [ ("vcs", Span.Int s.vcs);
                    ("channels", Span.Int (Network.num_channels s.net)) ]
                (fun () ->
                   match E.route s with
                   | r -> r
                   | exception ((Out_of_memory | Stack_overflow) as e) ->
                     raise e
                   | exception e ->
                     Error
                       (Engine_error.Internal
                          (name ^ ": " ^ Printexc.to_string e))))
        in
        (match result with
         | Ok _ -> Obs.incr c_routes_ok
         | Error _ -> Obs.incr c_routes_err);
        result
      end
  end)

let register e =
  let (module E : ENGINE) = e in
  let wrapped = safety_wrap e in
  let replaced = ref false in
  let updated =
    List.map
      (fun ((module R : ENGINE) as r) ->
         if R.name = E.name then begin replaced := true; wrapped end
         else r)
      !registry
  in
  registry := if !replaced then updated else !registry @ [ wrapped ]

let find name =
  List.find_opt (fun (module E : ENGINE) -> E.name = name) !registry

let all () = !registry

let names () = List.map (fun (module E : ENGINE) -> E.name) !registry

let route name s =
  match find name with
  | Some (module E) -> E.route s
  | None -> Error (Engine_error.Unknown_engine name)

(* {1 Built-in engines}

   Everything below lives in this library; Nue registers from
   [Nue_core.Nue_engine] because it depends on [nue_routing]. *)

let () =
  register
    (module struct
      let name = "minhop"
      let capabilities = caps ~respects_vc_budget:true ()
      let route s = Ok (Minhop.route ?dests:s.dests ?sources:s.sources s.net)
    end);
  register
    (module struct
      let name = "sssp"
      let capabilities = caps ~respects_vc_budget:true ()
      let route s =
        Ok (Dfsssp.paths_only ?dests:s.dests ?sources:s.sources s.net)
    end);
  register
    (module struct
      let name = "updown"
      let capabilities = caps ~respects_vc_budget:true ~deadlock_free:true ()
      let route s = Ok (Updown.route ?dests:s.dests ?sources:s.sources s.net)
    end);
  register
    (module struct
      let name = "dfsssp"
      let capabilities = caps ~deadlock_free:true ()
      let route s =
        Dfsssp.route_structured ?dests:s.dests ?sources:s.sources
          ~max_vls:s.vcs s.net
    end);
  register
    (module struct
      let name = "lash"
      let capabilities = caps ~deadlock_free:true ()
      let route s =
        Lash.route_structured ?dests:s.dests ?sources:s.sources
          ~max_vls:s.vcs s.net
    end);
  register
    (module struct
      let name = "torus2qos"
      let capabilities = caps ~needs_torus_coords:true ~deadlock_free:true ()

      let route s =
        match s.torus with
        | None ->
          Error
            (Engine_error.Topology_mismatch
               "torus2qos: spec carries no 3D-torus metadata")
        | Some torus ->
          let remap =
            match s.remap with
            | Some r -> r
            | None -> Fault.identity torus.Topology.net
          in
          (match
             Torus2qos.route_structured ~torus ~remap ?dests:s.dests
               ?sources:s.sources ()
           with
           | Error e -> Error e
           | Ok table ->
             (* Torus-2QoS consumes 2 VLs (4 when faults force dimension
                reordering); honor the spec's budget. *)
             if table.Table.num_vls > s.vcs then
               Error
                 (Engine_error.Vc_budget_exceeded
                    { needed = table.Table.num_vls; available = s.vcs })
             else Ok table)
    end);
  register
    (module struct
      let name = "fattree"
      let capabilities = caps ~needs_tree_meta:true ~deadlock_free:true ()

      let route s =
        match s.tree with
        | None ->
          Error
            (Engine_error.Topology_mismatch
               "fattree: spec carries no k-ary n-tree metadata")
        | Some (k, n) ->
          Fattree.route_structured ~k ~n ?dests:s.dests ?sources:s.sources
            s.net
    end);
  register
    (module struct
      let name = "static-cdg"
      let capabilities =
        caps ~respects_vc_budget:true ~deadlock_free:true ~may_disconnect:true
          ()

      let route s = Ok (Static_cdg.route ~seed:s.seed ?dests:s.dests s.net)
    end)
