module Network = Nue_netgraph.Network
module Fault = Nue_netgraph.Fault
module Prng = Nue_structures.Prng

type t =
  | Fail of int * int
  | Repair of int * int

let endpoints = function Fail (u, v) | Repair (u, v) -> (u, v)

let is_fail = function Fail _ -> true | Repair _ -> false

let to_string = function
  | Fail (u, v) -> Printf.sprintf "fail %d %d" u v
  | Repair (u, v) -> Printf.sprintf "repair %d %d" u v

let of_string s =
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "")
  with
  | [ kind; u; v ] ->
    (match (int_of_string_opt u, int_of_string_opt v) with
     | Some u, Some v ->
       (match kind with
        | "fail" -> Ok (Fail (u, v))
        | "repair" -> Ok (Repair (u, v))
        | _ -> Error (Printf.sprintf "unknown event kind %S" kind))
     | _ -> Error (Printf.sprintf "malformed endpoints in %S" s))
  | _ -> Error (Printf.sprintf "expected \"fail|repair U V\", got %S" s)

let stream_to_string events =
  String.concat "" (List.map (fun e -> to_string e ^ "\n") events)

let stream_of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (n + 1) acc rest
      else begin
        match of_string trimmed with
        | Ok e -> go (n + 1) (e :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" n msg)
      end
  in
  go 1 [] lines

(* {1 Generators}

   Generators track the multiset of failed links and validate every
   candidate failure with [Fault.can_remove_links], which is false when
   a removal disconnects (or the pair has no surviving copy) — the same
   connectivity predicate the planner's [Fault.remove_links] applies
   later, so generated streams replay cleanly. *)

let eligible_pairs net =
  let out = ref [] in
  Array.iter
    (fun (u, v) ->
       if Network.is_switch net u && Network.is_switch net v then
         out := (u, v) :: !out)
    (Network.duplex_pairs net);
  Array.of_list (List.rev !out)

let rec drop_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: drop_one x rest

let random_churn prng net ~events =
  let eligible = eligible_pairs net in
  if Array.length eligible = 0 then []
  else begin
    let failed = ref [] in
    let out = ref [] in
    let emitted = ref 0 in
    let stuck = ref false in
    let repair_random () =
      match !failed with
      | [] -> None
      | _ ->
        let pair = Prng.pick prng (Array.of_list !failed) in
        failed := drop_one pair !failed;
        let u, v = pair in
        Some (Repair (u, v))
    in
    while !emitted < events && not !stuck do
      let want_fail = !failed = [] || Prng.bool prng in
      let event =
        if want_fail then begin
          (* Rejection-sample a failure that keeps the net connected. *)
          let tries = ref (4 * Array.length eligible) in
          let found = ref None in
          while !found = None && !tries > 0 do
            decr tries;
            let pair = Prng.pick prng eligible in
            if Fault.can_remove_links net (pair :: !failed) then
              found := Some pair
          done;
          match !found with
          | Some (u, v) ->
            failed := (u, v) :: !failed;
            Some (Fail (u, v))
          | None -> repair_random ()
        end
        else repair_random ()
      in
      match event with
      | Some e ->
        out := e :: !out;
        incr emitted
      | None -> stuck := true
    done;
    List.rev !out
  end

let burst_outage prng net ~fail =
  let eligible = eligible_pairs net in
  let failed = ref [] in
  let fails = ref [] in
  let tries = ref (4 * max 1 (Array.length eligible)) in
  while List.length !fails < fail && !tries > 0 do
    decr tries;
    if Array.length eligible > 0 then begin
      let pair = Prng.pick prng eligible in
      if Fault.can_remove_links net (pair :: !failed) then begin
        failed := pair :: !failed;
        fails := pair :: !fails
      end
    end
  done;
  let fails = List.rev !fails in
  List.map (fun (u, v) -> Fail (u, v)) fails
  @ List.rev_map (fun (u, v) -> Repair (u, v)) fails

let flapping_link prng net ~flaps =
  let eligible = eligible_pairs net in
  let tries = ref (4 * max 1 (Array.length eligible)) in
  let found = ref None in
  while !found = None && !tries > 0 do
    decr tries;
    if Array.length eligible > 0 then begin
      let pair = Prng.pick prng eligible in
      if Fault.can_remove_links net [ pair ] then found := Some pair
    end
  done;
  match !found with
  | None -> []
  | Some (u, v) ->
    List.concat
      (List.init flaps (fun _ -> [ Fail (u, v); Repair (u, v) ]))
