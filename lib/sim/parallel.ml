let run_exn = Engine.run_exn
let run_and_validate = Engine.run_and_validate
