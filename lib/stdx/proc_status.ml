let kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let prefix = key ^ ":" in
      let plen = String.length prefix in
      let v = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line > plen && String.sub line 0 plen = prefix then
             let rest = String.sub line plen (String.length line - plen) in
             try Scanf.sscanf rest " %d" (fun n -> v := n) with
             | Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
         done
       with End_of_file -> ());
      close_in ic;
      !v
