(* Test entry point: every module family registers its suite here.

   The audit hook is installed for the whole run, so a QCA_AUDIT=1
   environment makes every solver in the suite self-check its state
   periodically during search. *)

let () =
  Qca_check.Audit.install ();
  Alcotest.run "qca"
    [
      ("check", Test_check.suite);
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("linalg", Test_linalg.suite);
      ("quantum", Test_quantum.suite);
      ("circuit", Test_circuit.suite);
      ("sat", Test_sat.suite);
      ("simplify", Test_sat.differential_suite);
      ("pseudo_bool", Test_pseudo_bool.suite);
      ("diff_logic", Test_diff_logic.suite);
      ("adapt", Test_adapt.suite);
      ("greedy", Test_greedy.suite);
      ("sim", Test_sim.suite);
      ("workloads", Test_workloads.suite);
      ("formats", Test_formats.suite);
      ("statevector", Test_statevector.suite);
      ("properties", Test_properties.suite);
      ("mirror", Test_mirror.suite);
      ("fidelity", Test_fidelity.suite);
      ("schedule+heap", Test_schedule_heap.suite);
      ("governance", Test_governance.suite);
      ("par", Test_par.suite);
      ("incremental", Test_incremental.suite);
      ("analysis", Test_analysis.suite);
      ("kak", Test_kak.suite);
      ("serve", Test_serve.suite);
      ("integration", Test_integration.suite);
    ]
