let parallel_map ~jobs ~f arr =
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let first_exn = Atomic.make None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set first_exn None (Some (e, bt))));
        work ()
      end
    in
    (* domains beyond the cores only contend for them *)
    let spawned = min (min jobs n) (Domain.recommended_domain_count ()) - 1 in
    let domains = Array.init spawned (fun _ -> Domain.spawn work) in
    work ();
    (* Each slot of [results] is written by one domain only; joining
       orders those writes before the reads below. *)
    Array.iter Domain.join domains;
    (match Atomic.get first_exn with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
