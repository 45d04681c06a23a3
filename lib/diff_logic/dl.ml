type 'tag constr = { x : int; y : int; k : int; tag : 'tag }

type 'tag result = Consistent of int array | Negative_cycle of 'tag list

(* Bellman-Ford with a virtual source connected to every variable with
   weight 0. dist.(v) is then ≤ 0; pred tracks the tightening
   constraint for negative-cycle extraction. *)
let check ~num_vars constraints =
  let constraints = Array.of_list constraints in
  let dist = Array.make num_vars 0 in
  let pred = Array.make num_vars (-1) in
  let relax () =
    let changed = ref false in
    Array.iteri
      (fun ci c ->
        (* edge y → x, weight k: dist x ≤ dist y + k *)
        if dist.(c.y) + c.k < dist.(c.x) then begin
          dist.(c.x) <- dist.(c.y) + c.k;
          pred.(c.x) <- ci;
          changed := true
        end)
      constraints;
    !changed
  in
  let rec rounds i = if i <= 0 then true else if relax () then rounds (i - 1) else false in
  if not (rounds num_vars) then Consistent dist
  else begin
    (* The predecessor graph contains a cycle (standard Bellman-Ford
       theorem). Find it by walking every predecessor chain with a
       per-walk stamp; the first vertex revisited within one walk sits
       on the cycle. *)
    let stamp = Array.make num_vars (-1) in
    let found = ref None in
    let walk start =
      let v = ref start in
      let steps = ref 0 in
      while !found = None && pred.(!v) >= 0 && !steps <= num_vars do
        if stamp.(!v) = start then begin
          (* cycle detected: collect constraint tags around it *)
          let cycle_start = !v in
          let tags = ref [] in
          let w = ref cycle_start in
          let continue = ref true in
          while !continue do
            let c = constraints.(pred.(!w)) in
            tags := c.tag :: !tags;
            w := c.y;
            if !w = cycle_start then continue := false
          done;
          found := Some !tags
        end
        else begin
          stamp.(!v) <- start;
          v := constraints.(pred.(!v)).y;
          incr steps
        end
      done
    in
    let v = ref 0 in
    while !found = None && !v < num_vars do
      walk !v;
      incr v
    done;
    match !found with
    | Some tags -> Negative_cycle tags
    | None ->
      (* unreachable when the relaxation rounds reported a change *)
      assert false
  end
