module Block = Qca_circuit.Block
module Circuit = Qca_circuit.Circuit

type severity = Error | Warning

type issue = { severity : severity; rule : string; message : string }

let pp_issue fmt i =
  Format.fprintf fmt "%s [%s] %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    i.rule i.message

let errors issues = List.filter (fun i -> i.severity = Error) issues

let make issues severity rule fmt =
  Format.kasprintf (fun message -> issues := { severity; rule; message } :: !issues) fmt

(* -- Eq. 2: the block precedence graph must be acyclic -- *)
let check_precedence issues (part : Block.t) =
  let n = Array.length part.Block.blocks in
  let err fmt = make issues Error "precedence-acyclic" fmt in
  let ok = ref true in
  List.iter
    (fun (b', b) ->
      if b' < 0 || b' >= n || b < 0 || b >= n then begin
        err "dependency (%d, %d) references an unknown block" b' b;
        ok := false
      end
      else if b' = b then begin
        err "block %d depends on itself" b;
        ok := false
      end)
    part.Block.deps;
  if !ok && n > 0 then begin
    (* Kahn's algorithm; leftover nodes form the cycles *)
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    List.iter
      (fun (b', b) ->
        indeg.(b) <- indeg.(b) + 1;
        succs.(b') <- b :: succs.(b'))
      part.Block.deps;
    let queue = Queue.create () in
    Array.iteri (fun b d -> if d = 0 then Queue.add b queue) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let b = Queue.pop queue in
      incr seen;
      List.iter
        (fun b' ->
          indeg.(b') <- indeg.(b') - 1;
          if indeg.(b') = 0 then Queue.add b' queue)
        succs.(b)
    done;
    if !seen <> n then begin
      let stuck = ref [] in
      Array.iteri (fun b d -> if d > 0 then stuck := b :: !stuck) indeg;
      err "precedence graph has a cycle through blocks {%s}"
        (String.concat ", " (List.rev_map string_of_int !stuck))
    end
  end

(* -- every gate covered by exactly one block -- *)
let check_coverage issues (part : Block.t) =
  let err fmt = make issues Error "block-coverage" fmt in
  let ngates = Circuit.length part.Block.circuit in
  let owner = Array.make (max ngates 1) (-1) in
  Array.iter
    (fun (blk : Block.block) ->
      List.iter
        (fun g ->
          if g < 0 || g >= ngates then
            err "block %d lists unknown gate %d" blk.Block.id g
          else if owner.(g) >= 0 then
            err "gate %d covered by blocks %d and %d" g owner.(g) blk.Block.id
          else owner.(g) <- blk.Block.id)
        blk.Block.gate_ids)
    part.Block.blocks;
  for g = 0 to ngates - 1 do
    if owner.(g) < 0 then err "gate %d not covered by any block" g
    else if
      g < Array.length part.Block.gate_block
      && part.Block.gate_block.(g) <> owner.(g)
    then
      err "gate %d: gate_block says block %d but block %d lists it" g
        part.Block.gate_block.(g) owner.(g)
  done

(* -- Eq. 1: mutual-exclusion pairs must cover every overlap -- *)
let check_mutual_exclusion issues conflict_pairs (subs : Rules.t list) =
  let err fmt = make issues Error "mutual-exclusion" fmt in
  let warn fmt = make issues Warning "mutual-exclusion" fmt in
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (s : Rules.t) ->
      if Hashtbl.mem by_id s.Rules.id then
        err "duplicate substitution id %d" s.Rules.id
      else Hashtbl.replace by_id s.Rules.id s)
    subs;
  let key i j = if i < j then (i, j) else (j, i) in
  let declared = Hashtbl.create 64 in
  List.iter
    (fun (i, j) ->
      if i = j then err "substitution %d declared in conflict with itself" i
      else if not (Hashtbl.mem by_id i && Hashtbl.mem by_id j) then
        err "conflict pair (%d, %d) references an unknown substitution" i j
      else begin
        let overlap =
          let si = (Hashtbl.find by_id i).Rules.substituted in
          let sj = (Hashtbl.find by_id j).Rules.substituted in
          List.exists (fun g -> List.mem g sj) si
        in
        if not overlap then
          warn "pair (%d, %d) declared exclusive but shares no gate" i j;
        Hashtbl.replace declared (key i j) ()
      end)
    conflict_pairs;
  let arr = Array.of_list subs in
  let n = Array.length arr in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let sa = arr.(a) and sb = arr.(b) in
      if
        sa.Rules.id <> sb.Rules.id
        && List.exists (fun g -> List.mem g sb.Rules.substituted) sa.Rules.substituted
        && not (Hashtbl.mem declared (key sa.Rules.id sb.Rules.id))
      then
        err
          "substitutions %d and %d overlap but no mutual-exclusion pair \
           covers them"
          sa.Rules.id sb.Rules.id
    done
  done

(* -- Eq. 4/6 deltas vs the Table I reference costs. A substitution's
   deltas are defined relative to the direct basis translation of the
   gates it replaces, so both sides are exactly recomputable: the
   replacement's cost from the hardware spec, the reference from
   {!Rules.reference_duration} / [_log_fid]. -- *)
let check_deltas issues hw (part : Block.t) (subs : Rules.t list) =
  let err fmt = make issues Error "delta-sanity" fmt in
  let nblocks = Array.length part.Block.blocks in
  let gates = part.Block.gates in
  List.iter
    (fun (s : Rules.t) ->
      if s.Rules.block_id < 0 || s.Rules.block_id >= nblocks then
        err "substitution %d targets unknown block %d" s.Rules.id s.Rules.block_id
      else begin
        let blk = part.Block.blocks.(s.Rules.block_id) in
        if s.Rules.substituted = [] then
          err "substitution %d substitutes no gates" s.Rules.id;
        let sub_ok = ref (s.Rules.substituted <> []) in
        List.iter
          (fun g ->
            if not (List.mem g blk.Block.gate_ids) then begin
              err "substitution %d substitutes gate %d outside block %d"
                s.Rules.id g s.Rules.block_id;
              sub_ok := false
            end)
          s.Rules.substituted;
        let native = ref true in
        List.iter
          (fun g ->
            if not (Hardware.is_native hw g) then begin
              err "substitution %d replacement uses non-native gate %a"
                s.Rules.id Qca_circuit.Gate.pp g;
              native := false
            end)
          s.Rules.replacement;
        if !sub_ok && !native then begin
          let ref_dur =
            List.fold_left
              (fun acc i -> acc + Rules.reference_duration hw gates.(i))
              0 s.Rules.substituted
          and ref_fid =
            List.fold_left
              (fun acc i -> acc + Rules.reference_log_fid hw gates.(i))
              0 s.Rules.substituted
          in
          let rep_dur =
            List.fold_left
              (fun acc g -> acc + Hardware.duration hw g)
              0 s.Rules.replacement
          and rep_fid =
            List.fold_left
              (fun acc g ->
                acc
                + Qca_util.Numeric.log_fidelity_fixed (Hardware.fidelity hw g))
              0 s.Rules.replacement
          in
          if rep_dur < 0 then
            err "substitution %d has negative replacement duration %d"
              s.Rules.id rep_dur;
          if rep_fid > 0 then
            err "substitution %d has positive replacement log-fidelity %d"
              s.Rules.id rep_fid;
          if s.Rules.delta_duration <> rep_dur - ref_dur then
            err
              "substitution %d claims duration delta %+d, Table I gives %+d"
              s.Rules.id s.Rules.delta_duration (rep_dur - ref_dur);
          if s.Rules.delta_log_fid <> rep_fid - ref_fid then
            err
              "substitution %d claims log-fidelity delta %+d, Table I gives \
               %+d"
              s.Rules.id s.Rules.delta_log_fid (rep_fid - ref_fid)
        end
      end)
    subs

let check_model ?conflict_pairs hw part subs =
  let pairs =
    match conflict_pairs with Some p -> p | None -> Rules.conflicts subs
  in
  let issues = ref [] in
  check_precedence issues part;
  check_coverage issues part;
  check_mutual_exclusion issues pairs subs;
  check_deltas issues hw part subs;
  List.rev !issues

let certify_adaptation hw ~original ~adapted ?claimed_makespan
    ?claimed_log_fid_fp () =
  let issues = ref [] in
  let err rule fmt = make issues Error rule fmt in
  let warn rule fmt = make issues Warning rule fmt in
  if Circuit.num_qubits adapted <> Circuit.num_qubits original then
    err "certify-width" "adapted circuit has %d qubits, original %d"
      (Circuit.num_qubits adapted)
      (Circuit.num_qubits original);
  (* decoded once: the native check, the unitary and the metrics all
     read this array *)
  let gates = Circuit.gates adapted in
  let num_qubits = Circuit.num_qubits adapted in
  let non_native =
    Array.to_list gates |> List.filter (fun g -> not (Hardware.is_native hw g))
  in
  (match non_native with
  | [] -> ()
  | g :: _ ->
    err "certify-native" "%d non-native gate(s) remain (first: %a)"
      (List.length non_native) Qca_circuit.Gate.pp g);
  if !issues = [] then begin
    if
      not
        (Circuit.same_unitary ~up_to_phase:true (Circuit.unitary original)
           (Circuit.unitary_of_gates num_qubits gates))
    then
      err "certify-unitary"
        "adapted circuit is not unitary-equivalent to the original";
    let s = Metrics.summarize_gates hw ~num_qubits gates in
    (match claimed_makespan with
    | Some claimed when s.Metrics.duration > claimed ->
      (* Eq. 3 approximates a block's duration as its reference
         critical path plus sequential substitution deltas, so the
         model's makespan can undershoot the realized gate-level
         schedule — divergence is reported, but it is not a solver
         bug *)
      warn "certify-duration"
        "realized makespan %d ns exceeds the Eq. 3 estimate %d ns"
        s.Metrics.duration claimed
    | Some _ | None -> ());
    match claimed_log_fid_fp with
    | Some claimed ->
      let slack = 1e-6 *. float_of_int (1 + s.Metrics.gates) in
      if s.Metrics.log_fidelity < (float_of_int claimed /. 1e6) -. slack then
        err "certify-fidelity"
          "recomputed log-fidelity %.6f is below the claimed %.6f"
          s.Metrics.log_fidelity
          (float_of_int claimed /. 1e6)
    | None -> ()
  end;
  List.rev !issues
