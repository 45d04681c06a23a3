module Solver = Qca_sat.Solver

(* Arena clause layout (see Arena in lib/sat): three header words
   [size lsl 3 lor learnt lsl 2 lor deleted lsl 1 lor reloced;
   lbd/forward; activity bits], then the literals. Watch words are
   [cref lsl 1 lor is_binary]. The auditor re-derives everything from
   the raw arrays in a {!Solver.view}; it never calls solver code. *)
let hdr = 3

let check_view (v : Solver.view) =
  let issues = ref [] in
  let n_issues = ref 0 in
  let push fmt =
    Printf.ksprintf
      (fun s ->
        incr n_issues;
        if !n_issues <= 50 then issues := s :: !issues)
      fmt
  in
  let nv = v.Solver.v_nvars in
  let data = v.Solver.v_arena_data in

  (* -- arena walk: headers tile the used region, wasted accounting -- *)
  let headers = Hashtbl.create 256 in
  let wasted = ref 0 in
  let off = ref 0 in
  let bad_walk = ref false in
  while (not !bad_walk) && !off < v.Solver.v_arena_used do
    if !off + hdr > v.Solver.v_arena_used then begin
      push "arena: truncated header at word %d" !off;
      bad_walk := true
    end
    else begin
      let h = data.(!off) in
      let size = h lsr 3 in
      if size < 1 then begin
        push "arena: clause of size %d at word %d" size !off;
        bad_walk := true
      end
      else if !off + hdr + size > v.Solver.v_arena_used then begin
        push "arena: clause at word %d overruns the used region" !off;
        bad_walk := true
      end
      else begin
        if h land 1 <> 0 then
          push "arena: unresolved relocation marker at word %d" !off;
        if h land 2 <> 0 then wasted := !wasted + hdr + size;
        Hashtbl.replace headers !off ();
        off := !off + hdr + size
      end
    end
  done;
  if (not !bad_walk) && !wasted <> v.Solver.v_arena_wasted then
    push "arena: wasted-word account %d but headers say %d"
      v.Solver.v_arena_wasted !wasted;

  let valid_cref cr = Hashtbl.mem headers cr in
  let size cr = data.(cr) lsr 3 in
  let deleted cr = data.(cr) land 2 <> 0 in
  let learnt cr = data.(cr) land 4 <> 0 in
  let clause_lit cr i = data.(cr + hdr + i) in
  let has_lit cr l =
    let n = size cr in
    let rec go i = i < n && (clause_lit cr i = l || go (i + 1)) in
    go 0
  in
  let lit_ok l = l >= 0 && l < 2 * nv in
  let lit_val l =
    let a = v.Solver.v_assigns.(l lsr 1) in
    if a < 0 then -1 else a lxor (l land 1)
  in

  (* -- clause registries -- *)
  let live = Hashtbl.create 256 in
  let scan_list what want_learnt crs =
    Array.iter
      (fun cr ->
        if not (valid_cref cr) then push "%s: dangling cref %d" what cr
        else begin
          if deleted cr then push "%s: deleted clause %d still listed" what cr;
          if learnt cr <> want_learnt then
            push "%s: clause %d has the wrong learnt flag" what cr;
          if Hashtbl.mem live cr then push "%s: clause %d listed twice" what cr
          else Hashtbl.replace live cr ();
          for i = 0 to size cr - 1 do
            if not (lit_ok (clause_lit cr i)) then
              push "%s: clause %d holds invalid literal %d" what cr
                (clause_lit cr i)
          done
        end)
      crs
  in
  scan_list "clauses" false v.Solver.v_clauses;
  scan_list "learnts" true v.Solver.v_learnts;

  (* -- watch lists vs arena -- *)
  let w0 = Hashtbl.create 256 and w1 = Hashtbl.create 256 in
  let bump tbl cr = Hashtbl.replace tbl cr (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cr)) in
  for l = 0 to (2 * nv) - 1 do
    let n = v.Solver.v_wsize.(l) in
    if n land 1 <> 0 then push "watch %d: odd list length %d" l n
    else if n > Array.length v.Solver.v_wdata.(l) then
      push "watch %d: length %d exceeds storage" l n
    else
      let wd = v.Solver.v_wdata.(l) in
      let i = ref 0 in
      while !i < n do
        let blocker = wd.(!i) and word = wd.(!i + 1) in
        let cr = word lsr 1 in
        if not (valid_cref cr) then push "watch %d: dangling cref %d" l cr
        else begin
          if not (Hashtbl.mem live cr) then
            push "watch %d: clause %d is not in any clause list" l cr;
          if word land 1 <> (if size cr = 2 then 1 else 0) then
            push "watch %d: binary flag disagrees with clause %d size" l cr;
          if not (lit_ok blocker) then
            push "watch %d: invalid blocker %d" l blocker
          else if not (has_lit cr blocker) then
            push "watch %d: blocker %d not in clause %d" l blocker cr
          else if blocker = l then
            push "watch %d: clause %d uses the watch literal as blocker" l cr;
          if size cr >= 2 && clause_lit cr 0 = l then bump w0 cr
          else if size cr >= 2 && clause_lit cr 1 = l then bump w1 cr
          else push "watch %d: clause %d is not watched on this literal" l cr
        end;
        i := !i + 2
      done
  done;
  Hashtbl.iter
    (fun cr () ->
      if size cr >= 2 then begin
        let c0 = Option.value ~default:0 (Hashtbl.find_opt w0 cr) in
        let c1 = Option.value ~default:0 (Hashtbl.find_opt w1 cr) in
        if c0 <> 1 || c1 <> 1 then
          push "clause %d: watched %d/%d times on its two watch literals" cr
            c0 c1
      end)
    live;

  (* -- trail / assignment / level coherence -- *)
  let ts = v.Solver.v_trail_size in
  let tls = v.Solver.v_trail_lim_size in
  if ts < 0 || ts > nv then push "trail: size %d out of range" ts;
  if v.Solver.v_qhead < 0 || v.Solver.v_qhead > ts then
    push "trail: qhead %d outside [0,%d]" v.Solver.v_qhead ts;
  for k = 0 to tls - 1 do
    let lim = v.Solver.v_trail_lim.(k) in
    if lim < 0 || lim > ts then push "trail: level %d mark %d out of range" (k + 1) lim;
    if k > 0 && v.Solver.v_trail_lim.(k - 1) > lim then
      push "trail: level marks not monotone at %d" k
  done;
  if ts >= 0 && ts <= nv then begin
    let on_trail = Array.make (max nv 1) false in
    let lvl = ref 0 in
    for i = 0 to ts - 1 do
      let l = v.Solver.v_trail.(i) in
      if not (lit_ok l) then push "trail[%d]: invalid literal %d" i l
      else begin
        let var = l lsr 1 in
        if on_trail.(var) then push "trail[%d]: variable %d appears twice" i var
        else on_trail.(var) <- true;
        if lit_val l <> 1 then push "trail[%d]: literal %d is not true" i l;
        while !lvl < tls && v.Solver.v_trail_lim.(!lvl) <= i do incr lvl done;
        if v.Solver.v_level.(var) <> !lvl then
          push "trail[%d]: variable %d at level %d, expected %d" i var
            v.Solver.v_level.(var) !lvl
      end
    done;
    for var = 0 to nv - 1 do
      if v.Solver.v_assigns.(var) >= 0 && not on_trail.(var) then
        push "assigns: variable %d assigned but not on the trail" var
    done
  end;

  (* -- reasons imply their variable -- *)
  for var = 0 to nv - 1 do
    let r = v.Solver.v_reason.(var) in
    if v.Solver.v_assigns.(var) < 0 then begin
      if r >= 0 then push "reason: unassigned variable %d keeps reason %d" var r
    end
    else if r >= 0 then begin
      if not (valid_cref r) then push "reason: variable %d has dangling cref %d" var r
      else if deleted r then push "reason: variable %d implied by deleted clause %d" var r
      else begin
        let true_lit = (2 * var) lor (1 - v.Solver.v_assigns.(var)) in
        if not (has_lit r true_lit) then
          push "reason: clause %d does not contain variable %d's literal" r var
        else
          for i = 0 to size r - 1 do
            let l = clause_lit r i in
            if l <> true_lit && lit_ok l && lit_val l <> 0 then
              push "reason: clause %d literal %d not false under the trail" r l
          done
      end
    end
  done;

  (* -- VSIDS heap -- *)
  let hs = v.Solver.v_hsize in
  if hs < 0 || hs > nv then push "heap: size %d out of range" hs
  else begin
    let before vi vj =
      let ai = v.Solver.v_hact.(vi) and aj = v.Solver.v_hact.(vj) in
      ai > aj || (ai = aj && vi < vj)
    in
    for i = 0 to hs - 1 do
      let var = v.Solver.v_hheap.(i) in
      if var < 0 || var >= nv then push "heap[%d]: invalid variable %d" i var
      else begin
        if v.Solver.v_hindex.(var) <> i then
          push "heap[%d]: index array says %d" i v.Solver.v_hindex.(var);
        if i > 0 && before var v.Solver.v_hheap.((i - 1) / 2) then
          push "heap[%d]: variable %d ordered before its parent" i var
      end
    done;
    for var = 0 to nv - 1 do
      let idx = v.Solver.v_hindex.(var) in
      if idx >= 0 && (idx >= hs || v.Solver.v_hheap.(idx) <> var) then
        push "heap: stale index %d for variable %d" idx var;
      let decision = v.Solver.v_decision.(var) in
      if v.Solver.v_use_vsids && decision && v.Solver.v_assigns.(var) < 0 && idx < 0
      then push "heap: unassigned variable %d missing from the order" var;
      if (not decision) && idx >= 0 then
        push "heap: non-decision variable %d in the order" var
    done
  end;

  if !n_issues > 50 then
    issues := Printf.sprintf "... and %d further violations" (!n_issues - 50) :: !issues;
  List.rev !issues

let check solver = check_view (Solver.view solver)

exception Violation of string list

let () =
  Printexc.register_printer (function
    | Violation vs ->
      Some
        (Printf.sprintf "Qca_check.Audit.Violation [%s]"
           (String.concat "; " vs))
    | _ -> None)

let check_exn solver =
  match check solver with [] -> () | vs -> raise (Violation vs)

let install () = Solver.set_audit_hook check_exn
