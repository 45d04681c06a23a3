(* Qca_par.Lockcheck: lock-order cycle detection, long-hold reporting,
   and absence of false positives on the patterns the tree uses. *)

module Lockcheck = Qca_par.Lockcheck
module Chan = Qca_par.Chan

(* Every test saves and restores the global enabled flag / threshold so
   the suite behaves the same with and without QCA_LOCKCHECK=1. *)
let with_lockcheck ?(threshold_ms = 1e9) f () =
  let was = Lockcheck.enabled () in
  Lockcheck.reset ();
  Lockcheck.set_enabled true;
  Lockcheck.set_long_hold_ms threshold_ms;
  Fun.protect
    ~finally:(fun () ->
      Lockcheck.set_enabled was;
      Lockcheck.set_long_hold_ms 250.0;
      Lockcheck.reset ())
    f

let test_cycle_detected =
  with_lockcheck (fun () ->
      let a = Lockcheck.create ~name:"a" () in
      let b = Lockcheck.create ~name:"b" () in
      (* establish a -> b *)
      Lockcheck.lock a;
      Lockcheck.lock b;
      Lockcheck.unlock b;
      Lockcheck.unlock a;
      Alcotest.(check int) "no cycle yet" 0 (Lockcheck.cycles ());
      (* invert: b -> a closes the cycle *)
      Lockcheck.lock b;
      Lockcheck.lock a;
      Lockcheck.unlock a;
      Lockcheck.unlock b;
      Alcotest.(check int) "cycle flagged" 1 (Lockcheck.cycles ());
      match
        List.filter
          (fun r -> r.Lockcheck.r_kind = Lockcheck.Cycle)
          (Lockcheck.reports ())
      with
      | [ r ] ->
        let has_sub s sub =
          let ls = String.length s and lb = String.length sub in
          let rec at i =
            i + lb <= ls && (String.sub s i lb = sub || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool)
          "report names both locks" true
          (has_sub r.Lockcheck.r_message "a#"
          && has_sub r.Lockcheck.r_message "b#")
      | rs ->
        Alcotest.failf "expected exactly one cycle report, got %d"
          (List.length rs))

let test_cycle_three_party =
  with_lockcheck (fun () ->
      let a = Lockcheck.create ~name:"a" () in
      let b = Lockcheck.create ~name:"b" () in
      let c = Lockcheck.create ~name:"c" () in
      let nest x y =
        Lockcheck.lock x;
        Lockcheck.lock y;
        Lockcheck.unlock y;
        Lockcheck.unlock x
      in
      nest a b;
      nest b c;
      Alcotest.(check int) "chain is acyclic" 0 (Lockcheck.cycles ());
      nest c a;
      Alcotest.(check int) "a->b->c->a flagged" 1 (Lockcheck.cycles ()))

let test_consistent_order_clean =
  with_lockcheck (fun () ->
      let a = Lockcheck.create ~name:"outer" () in
      let b = Lockcheck.create ~name:"inner" () in
      for _ = 1 to 100 do
        Lockcheck.lock a;
        Lockcheck.lock b;
        Lockcheck.unlock b;
        Lockcheck.unlock a
      done;
      Alcotest.(check int) "consistent nesting never fires" 0
        (Lockcheck.cycles ()))

let test_chan_clean =
  with_lockcheck (fun () ->
      (* the channel the serve daemon queues on must be lockcheck-silent *)
      let ch = Chan.create ~capacity:4 in
      let prod =
        Domain.spawn (fun () ->
            for i = 1 to 200 do
              ignore (Chan.push ch i)
            done;
            Chan.close ch)
      in
      let total = ref 0 in
      let rec drain () =
        match Chan.pop ch with
        | Some v ->
          total := !total + v;
          drain ()
        | None -> ()
      in
      drain ();
      Domain.join prod;
      Alcotest.(check int) "all items" (200 * 201 / 2) !total;
      Alcotest.(check int) "no cycles" 0 (Lockcheck.cycles ());
      Alcotest.(check int) "no long holds" 0 (Lockcheck.long_holds ()))

let test_long_hold =
  with_lockcheck ~threshold_ms:0.0 (fun () ->
      let a = Lockcheck.create ~name:"slowpoke" () in
      Lockcheck.lock a;
      Unix.sleepf 0.02;
      Lockcheck.unlock a;
      Alcotest.(check bool) "long hold reported" true
        (Lockcheck.long_holds () >= 1))

let test_wait_not_billed =
  with_lockcheck ~threshold_ms:50.0 (fun () ->
      (* a domain parked in Lockcheck.wait for ~100ms must not be billed
         for a long hold: the wait releases the mutex *)
      let t = Lockcheck.create ~name:"waiter" () in
      let cv = Condition.create () in
      let flag = ref false in
      let waiter =
        Domain.spawn (fun () ->
            Lockcheck.lock t;
            while not !flag do
              Lockcheck.wait cv t
            done;
            Lockcheck.unlock t)
      in
      Unix.sleepf 0.1;
      Lockcheck.lock t;
      flag := true;
      Condition.broadcast cv;
      Lockcheck.unlock t;
      Domain.join waiter;
      Alcotest.(check int) "parked time not billed" 0
        (Lockcheck.long_holds ()))

let test_disabled_no_op () =
  let was = Lockcheck.enabled () in
  Lockcheck.reset ();
  Lockcheck.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Lockcheck.set_enabled was;
      Lockcheck.reset ())
    (fun () ->
      let a = Lockcheck.create ~name:"a" () in
      let b = Lockcheck.create ~name:"b" () in
      let nest x y =
        Lockcheck.lock x;
        Lockcheck.lock y;
        Lockcheck.unlock y;
        Lockcheck.unlock x
      in
      nest a b;
      nest b a;
      Alcotest.(check int) "disabled records nothing" 0 (Lockcheck.cycles ());
      Alcotest.(check int) "no reports" 0
        (List.length (Lockcheck.reports ())))

let test_reset =
  with_lockcheck (fun () ->
      let a = Lockcheck.create ~name:"a" () in
      let b = Lockcheck.create ~name:"b" () in
      Lockcheck.lock a;
      Lockcheck.lock b;
      Lockcheck.unlock b;
      Lockcheck.unlock a;
      Lockcheck.lock b;
      Lockcheck.lock a;
      Lockcheck.unlock a;
      Lockcheck.unlock b;
      Alcotest.(check int) "cycle before reset" 1 (Lockcheck.cycles ());
      Lockcheck.reset ();
      Alcotest.(check int) "counters cleared" 0 (Lockcheck.cycles ());
      (* the order graph is cleared too: the same inversion must be
         re-derivable from scratch *)
      Lockcheck.lock a;
      Lockcheck.lock b;
      Lockcheck.unlock b;
      Lockcheck.unlock a;
      Alcotest.(check int) "fresh graph" 0 (Lockcheck.cycles ()))

let suite =
  [
    ("cycle detected", `Quick, test_cycle_detected);
    ("three-party cycle", `Quick, test_cycle_three_party);
    ("consistent order clean", `Quick, test_consistent_order_clean);
    ("chan clean", `Quick, test_chan_clean);
    ("long hold", `Quick, test_long_hold);
    ("wait not billed", `Quick, test_wait_not_billed);
    ("disabled no-op", `Quick, test_disabled_no_op);
    ("reset", `Quick, test_reset);
  ]
