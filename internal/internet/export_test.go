package internet

import "net/http"

// HandlerFor exposes the host routing to the external differential test.
func (in *Internet) HandlerFor(host string) http.Handler { return in.handler(host) }
