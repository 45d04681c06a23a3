type t = {
  starts : int array;
  finishes : int array;
  makespan : int;
  busy : int array;
  idle : int array;
}

let schedule_gates ~dur ~num_qubits:n gates =
  let avail = Array.make n 0 in
  let busy = Array.make n 0 in
  let starts = Array.make (Array.length gates) 0 in
  let finishes = Array.make (Array.length gates) 0 in
  Array.iteri
    (fun i g ->
      let wires = Gate.qubits g in
      let d = dur g in
      if d < 0 then invalid_arg "Schedule.schedule: negative duration";
      let s = List.fold_left (fun acc q -> max acc avail.(q)) 0 wires in
      starts.(i) <- s;
      finishes.(i) <- s + d;
      List.iter
        (fun q ->
          avail.(q) <- s + d;
          busy.(q) <- busy.(q) + d)
        wires)
    gates;
  let makespan = Array.fold_left max 0 avail in
  let idle = Array.map (fun b -> makespan - b) busy in
  { starts; finishes; makespan; busy; idle }

let schedule ~dur circuit =
  schedule_gates ~dur ~num_qubits:(Circuit.num_qubits circuit)
    (Circuit.gates circuit)

let total_idle t = Array.fold_left ( + ) 0 t.idle

let idle_windows ~dur circuit =
  let gates = Circuit.gates circuit in
  let n = Circuit.num_qubits circuit in
  let sch = schedule ~dur circuit in
  let cursor = Array.make n 0 in
  let windows = Array.make n [] in
  Array.iteri
    (fun i g ->
      List.iter
        (fun q ->
          if sch.starts.(i) > cursor.(q) then
            windows.(q) <- (cursor.(q), sch.starts.(i)) :: windows.(q);
          cursor.(q) <- sch.finishes.(i))
        (Gate.qubits g))
    gates;
  for q = 0 to n - 1 do
    if sch.makespan > cursor.(q) then
      windows.(q) <- (cursor.(q), sch.makespan) :: windows.(q);
    windows.(q) <- List.rev windows.(q)
  done;
  windows

let alap ~dur circuit =
  let gates = Circuit.gates circuit in
  let n = Circuit.num_qubits circuit in
  let deadline = (schedule ~dur circuit).makespan in
  (* latest.(q): the earliest start among already-placed later gates on q *)
  let latest = Array.make n deadline in
  let busy = Array.make n 0 in
  let m = Array.length gates in
  let starts = Array.make m 0 in
  let finishes = Array.make m 0 in
  for i = m - 1 downto 0 do
    let g = gates.(i) in
    let wires = Gate.qubits g in
    let d = dur g in
    let finish = List.fold_left (fun acc q -> min acc latest.(q)) deadline wires in
    let start = finish - d in
    starts.(i) <- start;
    finishes.(i) <- finish;
    List.iter
      (fun q ->
        latest.(q) <- start;
        busy.(q) <- busy.(q) + d)
      wires
  done;
  let idle = Array.map (fun b -> deadline - b) busy in
  { starts; finishes; makespan = deadline; busy; idle }

let slack ~dur circuit =
  let asap = schedule ~dur circuit in
  let late = alap ~dur circuit in
  Array.mapi (fun i s -> late.starts.(i) - s) asap.starts

let critical_gates ~dur circuit =
  let s = slack ~dur circuit in
  Array.to_list (Array.mapi (fun i v -> (i, v)) s)
  |> List.filter_map (fun (i, v) -> if v = 0 then Some i else None)
