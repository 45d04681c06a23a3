type site =
  | Sat_step
  | Omt_round
  | Warm_start
  | Greedy_step
  | Serve_accept
  | Serve_request

type action = Exhaust | Spurious_conflict | Cancel

let site_index = function
  | Sat_step -> 0
  | Omt_round -> 1
  | Warm_start -> 2
  | Greedy_step -> 3
  | Serve_accept -> 4
  | Serve_request -> 5

let num_sites = 6

type mode =
  | Off
  | Plan of (int * int * action) list  (* (site index, count, action) *)
  | Random of Rng.t * float * action

type t = { mode : mode; counts : int array }

let none = { mode = Off; counts = Array.make num_sites 0 }
  [@@qca.domain_safe "counts is never written while mode = Off"]

let inject plan =
  {
    mode = Plan (List.map (fun (s, n, a) -> (site_index s, n, a)) plan);
    counts = Array.make num_sites 0;
  }

let random ~seed ~p action =
  { mode = Random (Rng.create seed, p, action); counts = Array.make num_sites 0 }

let is_none t = t.mode = Off

let check t site =
  match t.mode with
  | Off -> None
  | Plan plan ->
    let i = site_index site in
    let n = t.counts.(i) + 1 in
    t.counts.(i) <- n;
    List.find_map
      (fun (si, sn, a) -> if si = i && sn = n then Some a else None)
      plan
  | Random (rng, p, action) ->
    let i = site_index site in
    t.counts.(i) <- t.counts.(i) + 1;
    if Rng.float rng 1.0 < p then Some action else None

let consultations t site = t.counts.(site_index site)

let site_name = function
  | Sat_step -> "sat-step"
  | Omt_round -> "omt-round"
  | Warm_start -> "warm-start"
  | Greedy_step -> "greedy-step"
  | Serve_accept -> "serve-accept"
  | Serve_request -> "serve-request"

let action_name = function
  | Exhaust -> "exhaust"
  | Spurious_conflict -> "spurious-conflict"
  | Cancel -> "cancel"

let site_of_name = function
  | "sat-step" -> Ok Sat_step
  | "omt-round" -> Ok Omt_round
  | "warm-start" -> Ok Warm_start
  | "greedy-step" -> Ok Greedy_step
  | "serve-accept" -> Ok Serve_accept
  | "serve-request" -> Ok Serve_request
  | other -> Error (Printf.sprintf "unknown fault site %S" other)

let action_of_name = function
  | "exhaust" -> Ok Exhaust
  | "spurious-conflict" -> Ok Spurious_conflict
  | "cancel" -> Ok Cancel
  | other -> Error (Printf.sprintf "unknown fault action %S" other)

let of_spec spec =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.trim spec) with
  | "random" :: rest -> (
    match rest with
    | [ seed; p; action ] -> (
      match (int_of_string_opt seed, float_of_string_opt p) with
      | Some seed, Some p when p >= 0.0 && p <= 1.0 ->
        let* action = action_of_name action in
        Ok (random ~seed ~p action)
      | _ -> Error "random plan is random:SEED:P:ACTION with P in [0,1]")
    | _ -> Error "random plan is random:SEED:P:ACTION")
  | _ ->
    let* entries =
      List.fold_left
        (fun acc triple ->
          let* acc = acc in
          match String.split_on_char ':' (String.trim triple) with
          | [ site; n; action ] -> (
            let* site = site_of_name site in
            let* action = action_of_name action in
            match int_of_string_opt n with
            | Some n when n >= 1 -> Ok ((site, n, action) :: acc)
            | _ -> Error (Printf.sprintf "fault count %S must be >= 1" n))
          | _ ->
            Error
              (Printf.sprintf "malformed fault entry %S (want site:n:action)"
                 triple))
        (Ok [])
        (String.split_on_char ',' spec)
    in
    Ok (inject (List.rev entries))
